"""Injection-side hardware models: starvation meter and throttle gate.

These mirror the paper's hardware (§6.5): a W-bit shift register with an
up/down counter measuring the windowed starvation rate sigma, and the
deterministic injection-throttling counter of Algorithm 3.
"""

from __future__ import annotations

import numpy as np

__all__ = ["StarvationMeter", "InjectionThrottleGate"]


class StarvationMeter:
    """Windowed starvation-rate measurement (sigma, §3.1).

    ``sigma = (1/W) * sum over the last W cycles of starved(i)``, where a
    cycle is *starved* when the node wanted to inject a flit but did not
    (blocked by port contention or by the throttle gate, per Algorithm 3).
    Modeled exactly as the paper's W-bit shift register plus counter.
    """

    def __init__(self, num_nodes: int, window: int = 128):
        if window < 1:
            raise ValueError("starvation window must be positive")
        self.window = window
        self.num_nodes = num_nodes
        self._ring = np.zeros((num_nodes, window), dtype=bool)
        self._sum = np.zeros(num_nodes, dtype=np.int32)
        self._pos = 0
        self._cycles_seen = 0

    def update(self, starved: np.ndarray) -> None:
        """Shift in this cycle's starvation bits."""
        column = self._ring[:, self._pos]
        self._sum -= column
        self._sum += starved
        column[...] = starved
        self._pos = (self._pos + 1) % self.window
        self._cycles_seen += 1

    def rate(self) -> np.ndarray:
        """Per-node starvation rate over the last ``W`` cycles, in [0, 1]."""
        denom = min(self.window, max(self._cycles_seen, 1))
        return self._sum / denom

    def storage_bits_per_node(self) -> int:
        """Hardware cost of the meter (shift register + counter), in bits."""
        counter_bits = int(np.ceil(np.log2(self.window + 1)))
        return self.window + counter_bits


class InjectionThrottleGate:
    """Deterministic injection throttling (Algorithm 3).

    Each node has a free-running counter advanced on every injection
    *attempt* (a cycle where the node tries to inject and an output link
    is free).  The attempt is blocked while the counter is below
    ``throttle_rate * MAX_COUNT``, so exactly a ``throttle_rate``
    fraction of attempts is blocked over each counter period.
    """

    MAX_COUNT = 128  # 7-bit counter, as in §6.5

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.counter = np.zeros(num_nodes, dtype=np.int32)
        self.rate = np.zeros(num_nodes, dtype=np.float64)

    def set_rates(self, rates: np.ndarray) -> None:
        """Install per-node throttling rates in [0, 1]."""
        rates = np.asarray(rates, dtype=np.float64)
        if rates.shape != (self.num_nodes,):
            raise ValueError("rates must have one entry per node")
        if np.any((rates < 0) | (rates > 1)):
            raise ValueError("throttle rates must lie in [0, 1]")
        # In-place so observers holding the array (e.g. the native
        # backend's pointer table) see the update.
        self.rate[:] = rates

    def decide(self, trying: np.ndarray) -> np.ndarray:
        """Return the mask of nodes allowed to inject this cycle.

        *trying* marks nodes attempting an injection with a free output
        link available; only their counters advance (Algorithm 3).
        """
        counter = self.counter
        counter += trying
        counter %= self.MAX_COUNT
        return trying & (counter >= self.rate * self.MAX_COUNT)

    def storage_bits_per_node(self) -> int:
        """Hardware cost of the gate (7-bit counter), in bits."""
        return int(np.ceil(np.log2(self.MAX_COUNT)))
