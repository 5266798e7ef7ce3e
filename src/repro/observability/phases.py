"""Per-phase wall-clock attribution for the simulator's cycle loop.

The simulator's per-cycle order of operations (see
:mod:`repro.sim.pipeline`) maps onto six phases.  When profiling is
enabled the pipeline compiles a timing wrapper around each phase that
brackets it with :meth:`PhaseTimer.begin_cycle` / :meth:`PhaseTimer.lap`,
so the cost of the timer itself is a handful of ``perf_counter`` calls
per cycle; when profiling is disabled the pipeline compiles to the bare
phase callables and the timer never exists at all.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["PHASES", "PhaseTimer"]

#: The simulator's phases, in per-cycle execution order.
PHASES = ("behavior", "cores", "memory", "network", "ejection", "epoch")


class PhaseTimer:
    """Accumulates wall-clock seconds into named simulation phases."""

    def __init__(self):
        self.seconds = {name: 0.0 for name in PHASES}
        self._mark = 0.0

    def begin_cycle(self) -> None:
        """Start timing; the next :meth:`lap` measures from here."""
        self._mark = perf_counter()

    def lap(self, phase: str) -> None:
        """Charge the time since the previous mark to *phase*."""
        now = perf_counter()
        # The chaos phase joins the pipeline only when a campaign runs,
        # so it is not in PHASES.
        self.seconds[phase] = self.seconds.get(phase, 0.0) + now - self._mark
        self._mark = now
