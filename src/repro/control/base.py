"""Controller interface and lifecycle.

A controller runs periodically (every epoch of T cycles, §5) and returns
per-node injection throttling rates; the simulator installs them in the
network's Algorithm-3 throttle gate.  The one in-network signal a
scheme may react to (the distributed scheme of §6.6) is data the network
leaves behind: ``network.cbit_seen[node]`` is set when *node* is
delivered a flit carrying the congestion bit, and :meth:`Controller.drain`
hands the array to :meth:`Controller.on_congestion_bits` and clears it.

Lifecycle: a controller is built from parameters alone, passed in
``SimulationConfig(controller=...)``, and :meth:`Controller.attach` is
called exactly once, by ``Simulator.__init__``, with the built network.
From then on the simulator drives :meth:`Controller.run_epoch` alone;
chaos ``controller_down``/``controller_up`` events set the fail-stop
state through :meth:`Controller.fail`/:meth:`Controller.restore`.  All
three drain first, so what a standby is handed covers exactly the
intervals its primary was down, to the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["EpochView", "Controller", "NoController"]

#: Rates below this decay to exactly zero (matches the distributed
#: controller's cutoff so tiny stale throttles do not linger forever).
_RATE_EPSILON = 0.01


@dataclass
class EpochView:
    """The per-epoch state a controller may observe.

    Central coordination is cheap on-chip because the topology and size
    are statically known (§2.1); this view is what the paper's 2n control
    packets per epoch carry (each node's IPF and starvation rate).
    """

    cycle: int
    ipf: np.ndarray  # measured instructions-per-flit per node
    starvation_rate: np.ndarray  # windowed sigma per node
    active: np.ndarray  # nodes running an application
    utilization: float  # network utilization over the epoch
    epoch_ipc: Optional[np.ndarray] = None  # per-node IPC over the epoch


class Controller:
    """Base class: no throttling, ever."""

    #: The network this controller is attached to (None until attach()).
    network = None
    #: Control-domain partition for schemes that shard the collection
    #: (``repro.control.hierarchical``); None = one hub for every node.
    domain_map = None
    #: Fail-stop state and its counters (ChaosReport reads them).
    down = False
    downtime_epochs = 0
    failovers = 0
    #: What run_epoch() does while down: ``freeze`` keeps the installed
    #: rates (open loop on stale decisions), ``decay`` relaxes them
    #: toward zero by ``degraded_decay`` per epoch, ``failover`` hands
    #: the epochs to ``standby``.
    degraded_mode = "freeze"
    degraded_decay = 0.5
    standby: Optional["Controller"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, network, config) -> None:
        """Bind to the built system; ``Simulator.__init__`` calls this
        exactly once.  Subclasses size their per-node state here."""
        if self.network is not None:
            raise ValueError(
                f"{self.describe()} is already attached to a simulator; "
                f"controllers hold per-run state, so build one controller "
                f"per run (e.g. config.with_(controller=...))"
            )
        self.network = network

    def set_degraded_policy(
        self, mode: str, decay: float, standby: "Controller" = None
    ) -> None:
        """Install the campaign's degraded policy (``ChaosConfig``
        validates *mode* and *decay*); *standby* is already attached."""
        self.degraded_mode = mode
        self.degraded_decay = decay
        self.standby = standby

    def fail(self) -> None:
        if self.down:
            return
        self.drain()
        self.down = True
        if self.degraded_mode == "failover":
            self.failovers += 1

    def restore(self) -> None:
        self.drain()
        self.down = False

    def drain(self) -> None:
        """Hand over and clear the congestion bits delivered since the
        last drain: the scheme keeps observing while down, a standby
        only while it is in charge."""
        seen = self.network.cbit_seen
        self.on_congestion_bits(seen)
        if self.down and self.standby is not None:
            self.standby.on_congestion_bits(seen)
        seen[:] = False

    # ------------------------------------------------------------------
    # What the simulator drives
    # ------------------------------------------------------------------
    def run_epoch(self, view: EpochView) -> np.ndarray:
        """One control period: the scheme's rates, or the degraded
        policy's while the controller is down."""
        self.drain()
        if not self.down:
            return self.on_epoch(view)
        self.downtime_epochs += 1
        return self.degraded_epoch(view)

    def degraded_epoch(self, view: EpochView) -> np.ndarray:
        """Rates for an epoch this controller is down for."""
        if self.degraded_mode == "failover":
            return self.standby.on_epoch(view)
        rates = self.network.throttle.rate.copy()
        if self.degraded_mode == "decay":
            rates *= self.degraded_decay
            rates[rates < _RATE_EPSILON] = 0.0
        return rates

    # ------------------------------------------------------------------
    # What a scheme implements
    # ------------------------------------------------------------------
    def on_epoch(self, view: EpochView) -> np.ndarray:
        """Return per-node throttle rates in [0, 1] for the next epoch."""
        return np.zeros(view.active.shape[0])

    def on_congestion_bits(self, seen: np.ndarray) -> None:
        """Per-node flags: was delivered a congestion-marked flit since
        the last call (distributed schemes only; *seen* is borrowed)."""

    def describe(self) -> str:
        return type(self).__name__


class NoController(Controller):
    """Baseline BLESS/buffered operation without congestion control."""
