"""The distributed "TCP-like" comparison scheme (§6.6).

The paper contrasts its central mechanism with a simple distributed one:

1. a node whose starvation rate exceeds a threshold sets a *congested*
   bit on every flit passing through it;
2. a node that receives a flit with the congested bit set self-throttles
   (backs off), like a TCP sender reacting to an implicit congestion
   notification from anywhere along the path.

The paper found this far less effective "because this mechanism is not
selective in its throttling (i.e., it does not include
application-awareness)"; the `bench_sec66` benchmark reproduces the
comparison.
"""

from __future__ import annotations

import numpy as np

from repro.control.base import Controller, EpochView

__all__ = ["DistributedController"]


class DistributedController(Controller):
    """Congestion-bit marking with multiplicative backoff decay."""

    def __init__(
        self,
        starvation_threshold: float = 0.25,
        backoff_rate: float = 0.5,
        decay: float = 0.5,
    ):
        if not 0.0 < backoff_rate < 1.0:
            raise ValueError("backoff rate must be in (0, 1)")
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        self.starvation_threshold = starvation_threshold
        self.backoff_rate = backoff_rate
        self.decay = decay

    def attach(self, network, config) -> None:
        """Instrument *network*: its ``congested_nodes`` is the marking
        state this scheme sets each epoch."""
        super().attach(network, config)
        self._marked = np.zeros(network.num_nodes, dtype=bool)
        self._rates = np.zeros(network.num_nodes)

    def on_congestion_bits(self, seen: np.ndarray) -> None:
        """A delivered flit with the congested bit trips its receiver."""
        self._marked |= seen

    def on_epoch(self, view: EpochView) -> np.ndarray:
        # (i) congested nodes start marking passing flits.  In-place so
        # observers holding the array (e.g. the native backend's pointer
        # table) see the update.
        self.network.congested_nodes[:] = (
            view.starvation_rate > self.starvation_threshold
        )
        # (ii) marked receivers back off; others decay toward full rate.
        self._rates = np.where(
            self._marked, self.backoff_rate, self._rates * self.decay
        )
        self._rates[self._rates < 0.01] = 0.0
        self._marked[:] = False
        return self._rates.copy()

    def describe(self) -> str:
        return (
            f"DistributedController(threshold={self.starvation_threshold}, "
            f"backoff={self.backoff_rate}, decay={self.decay})"
        )
