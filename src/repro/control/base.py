"""Controller interface.

A controller runs periodically (every epoch of T cycles, §5) and returns
per-node injection throttling rates; the simulator installs them in the
network's Algorithm-3 throttle gate.  Controllers that react to
in-network signals (the distributed scheme of §6.6) additionally observe
every delivered flit via :meth:`Controller.on_ejected`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["EpochView", "Controller", "NoController"]


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

    #: Whether the simulator should feed delivered flits to on_ejected.
    observes_ejections = False
    #: Whether the simulator should bind a control-domain partition
    #: (``repro.control.hierarchical``) before the run.
    wants_domains = False
    #: Fail-stop state of the coordinator; only chaos wrappers and the
    #: hierarchical controller ever set it.
    down = False

    def on_epoch(self, view: EpochView) -> np.ndarray:
        """Return per-node throttle rates in [0, 1] for the next epoch."""
        return np.zeros(view.active.shape[0])

    def on_ejected(self, ejected) -> None:
        """Observe flits delivered this cycle (distributed schemes only)."""

    def describe(self) -> str:
        return type(self).__name__


class NoController(Controller):
    """Baseline BLESS/buffered operation without congestion control."""
