"""Value types every router model shares: the per-cycle delivery batch
(:class:`EjectedFlits`) and the run-level counters
(:class:`NetworkStats`) that :class:`repro.network.engine.RouterEngine`
accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["EjectedFlits", "NetworkStats"]


@dataclass
class EjectedFlits:
    """Flits delivered to their destination NI this cycle."""

    node: np.ndarray  # destination node (where the flit ejected)
    src: np.ndarray  # injecting node
    kind: np.ndarray  # FLIT_REQUEST / FLIT_REPLY / FLIT_CONTROL
    seq: np.ndarray  # packet sequence tag (miss matching)

    @classmethod
    def empty(cls) -> "EjectedFlits":
        zero = np.zeros(0, dtype=np.int64)
        return cls(zero, zero, zero, zero)


@dataclass
class NetworkStats:
    """Run-level counters, accumulated every cycle."""

    cycles: int = 0
    injected_flits: int = 0
    ejected_flits: int = 0
    flit_hops: int = 0
    deflections: int = 0
    buffer_writes: int = 0
    buffer_reads: int = 0
    #: sum over cycles of flits held in in-router buffers (occupancy
    #: integral; divide by cycles for the mean — bufferless models stay 0)
    buffer_occupancy_sum: int = 0
    latency_sum: int = 0
    latency_count: int = 0
    latency_max: int = 0
    hops_sum: int = 0
    #: modeled control-plane flits (§6.6): every epoch the simulator
    #: attempts 2 flits per active node (report + rate update, per-hub
    #: with control domains).  A full hub queue rejects the overflow —
    #: those flits are *dropped*, not silently forgotten, and
    #: attempted == sent + dropped is an invariant-checker assertion.
    control_flits_attempted: int = 0
    control_flits_sent: int = 0
    control_flits_dropped: int = 0
    injected_per_node: Optional[np.ndarray] = field(default=None)
    starved_cycles: Optional[np.ndarray] = field(default=None)
    port_starved_cycles: Optional[np.ndarray] = field(default=None)
    #: per-flit latency histogram; the last bucket absorbs the tail
    latency_hist: Optional[np.ndarray] = field(default=None)

    LATENCY_HIST_BUCKETS = 1024

    def init_arrays(self, num_nodes: int) -> None:
        self.injected_per_node = np.zeros(num_nodes, dtype=np.int64)
        self.starved_cycles = np.zeros(num_nodes, dtype=np.int64)
        self.port_starved_cycles = np.zeros(num_nodes, dtype=np.int64)
        self.latency_hist = np.zeros(self.LATENCY_HIST_BUCKETS, dtype=np.int64)

    def record_latencies(self, latencies: np.ndarray) -> None:
        """Bucket delivered-flit latencies for percentile queries."""
        clipped = np.minimum(latencies, self.LATENCY_HIST_BUCKETS - 1)
        np.add.at(self.latency_hist, clipped, 1)

    def latency_percentile(self, p: float) -> int:
        """The *p*-th percentile (0-100) of delivered-flit latency."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        total = int(self.latency_hist.sum())
        if total == 0:
            return 0
        cum = np.cumsum(self.latency_hist)
        # Nearest-rank with a floor of 1 so p=0 returns the minimum
        # observed latency instead of (possibly empty) bucket 0; the
        # clamp keeps float rounding at p=100 inside the histogram.
        rank = max(p / 100.0 * total, 1)
        idx = int(np.searchsorted(cum, rank, side="left"))
        return min(idx, len(cum) - 1)

    @property
    def avg_latency(self) -> float:
        """Mean in-network latency (injection to ejection) per flit."""
        if self.latency_count == 0:
            return 0.0
        return self.latency_sum / self.latency_count

    @property
    def avg_hops(self) -> float:
        """Mean hops traversed per delivered flit (includes deflections)."""
        if self.latency_count == 0:
            return 0.0
        return self.hops_sum / self.latency_count

    @property
    def avg_buffer_occupancy(self) -> float:
        """Mean flits held in in-router buffers per cycle (network-wide)."""
        if self.cycles == 0:
            return 0.0
        return self.buffer_occupancy_sum / self.cycles

    @property
    def deflection_rate(self) -> float:
        """Deflections per link traversal."""
        if self.flit_hops == 0:
            return 0.0
        return self.deflections / self.flit_hops

    def utilization(self, num_links: int) -> float:
        """Mean fraction of directed links busy per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.flit_hops / (self.cycles * num_links)

    def starvation_rate(self) -> np.ndarray:
        """Per-node fraction of cycles spent starved over the whole run.

        Counts every blocked injection attempt, including those blocked
        by the Algorithm-3 throttle gate (the sigma the controller sees).
        """
        if self.cycles == 0:
            return np.zeros_like(self.starved_cycles, dtype=float)
        return self.starved_cycles / self.cycles

    def port_starvation_rate(self) -> np.ndarray:
        """Starvation from network admission only (no free output link
        / NI buffer full), excluding throttle-gate blocks.  This is the
        congestion signal itself, used for Fig 9-style comparisons."""
        if self.cycles == 0:
            return np.zeros_like(self.port_starved_cycles, dtype=float)
        return self.port_starved_cycles / self.cycles
