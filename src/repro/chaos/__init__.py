"""Mid-run fault/recovery campaigns (the chaos layer).

``repro.chaos`` drives the :class:`~repro.guardrails.faults.FaultModel`
transition methods on a schedule: links, routers, and the congestion
controller fail and recover at scheduled cycles while the run is in
flight, and the simulator measures how long the network takes to return
to its pre-fault steady state.  Everything is seeded and pre-scheduled,
so a chaos run is exactly as deterministic (and cacheable) as a
fault-free one.

Controller events go through the fail-stop protocol every
:class:`~repro.control.base.Controller` carries (``fail()`` /
``restore()``; ``ChaosConfig.degraded_mode`` picks what runs while it is
down), so the controller a run was configured with is the object that
runs.

See DESIGN.md §S23 for the architecture and the drain/quiesce protocol
that keeps the :class:`~repro.guardrails.invariants.InvariantChecker`
losslessness guarantee intact through every topology transition.
"""

from repro.chaos.engine import ChaosEngine
from repro.chaos.report import ChaosEventRecord, ChaosReport
from repro.chaos.schedule import (
    CHAOS_EVENT_KINDS,
    ChaosConfig,
    ChaosEvent,
    ChaosSchedule,
)

__all__ = [
    "CHAOS_EVENT_KINDS",
    "ChaosConfig",
    "ChaosEngine",
    "ChaosEvent",
    "ChaosEventRecord",
    "ChaosReport",
    "ChaosSchedule",
]
