"""Closed-loop core model.

Abstracts the paper's out-of-order cores (Table 2: 3-wide issue, at most
one memory instruction per cycle, 128-entry instruction window) to their
network-visible behavior:

- a core retires up to ``issue_width`` instructions per cycle while it
  is not stalled;
- after every miss gap (IPF x flits-per-miss retired instructions,
  sampled from the node's application model) the core takes an L1 miss
  and injects a request packet addressed by the data-locality model;
- the core *stalls* when

  * the **instruction window** is full: execution can run at most
    ``window_size`` instructions past the issue point of the *oldest*
    incomplete miss — in-order retirement means one straggling reply
    (e.g. a deflected flit) blocks the window even when newer replies
    have arrived, the latency-tail sensitivity ("stall time
    criticality") that makes congestion expensive at the application
    level; or
  * all **MSHRs** are busy (``mshr_limit`` outstanding misses); or
  * the NI request queue is full (backpressure).

The stall rules are the self-throttling property of §3.1: "a thread
running on a core can only inject a relatively small number of requests
into the network before stalling to wait for replies".  They close the
loop between network service and presented load, which is what prevents
congestion collapse and what the congestion-control mechanism exploits.
"""

from __future__ import annotations

import numpy as np

from repro.network.flit import SEQ_RING

__all__ = ["CoreArray"]


class CoreArray:
    """Vectorized model of one core per node.

    Parameters
    ----------
    behavior:
        An application-behavior array (``repro.traffic.applications``)
        providing per-node miss-gap samples and the active-node mask.
    locality:
        Destination sampler mapping miss sources to shared-cache slices.
    network:
        The NoC model receiving request packets.
    """

    def __init__(
        self,
        behavior,
        locality,
        network,
        rng: np.random.Generator,
        issue_width: int = 3,
        window_size: int = 128,
        mshr_limit: int = 16,
        request_flits: int = 1,
        reply_flits: int = 2,
    ):
        if mshr_limit < 1:
            raise ValueError("mshr_limit must be positive")
        if mshr_limit > SEQ_RING // 2:
            raise ValueError(f"mshr_limit must be <= {SEQ_RING // 2}")
        self.behavior = behavior
        self.locality = locality
        self.network = network
        self.rng = rng
        self.issue_width = issue_width
        self.window_size = window_size
        self.mshr_limit = mshr_limit
        self.request_flits = request_flits
        self.reply_flits = reply_flits
        self.num_nodes = behavior.num_nodes
        self.active = behavior.active.copy()

        n = self.num_nodes
        self.retired = np.zeros(n, dtype=np.float64)
        self.misses_issued = np.zeros(n, dtype=np.int64)  # = next miss number
        # Per-miss bookkeeping, indexed by miss number mod SEQ_RING and
        # read through flat views: a miss's slot is node * SEQ_RING + seq.
        self._issue_pos = np.zeros((n, SEQ_RING), dtype=np.float64)
        self._recv = np.zeros((n, SEQ_RING), dtype=np.int16)
        self._complete = np.zeros((n, SEQ_RING), dtype=bool)
        self._completed = np.zeros(n, dtype=np.int64)  # packets finished
        self._head = np.zeros(n, dtype=np.int64)  # oldest incomplete miss
        self._head_dirty = False
        self._ring_base = np.arange(n, dtype=np.int64) * SEQ_RING

        gaps = np.full(n, np.inf)
        act = np.flatnonzero(self.active)
        gaps[act] = behavior.sample_gap(act, rng, initial=True)
        self._insns_until_miss = gaps

        # Epoch counters read and reset by the congestion controller.
        self.epoch_insns = np.zeros(n, dtype=np.float64)
        self.epoch_flits = np.zeros(n, dtype=np.int64)
        self.stall_cycles = np.zeros(n, dtype=np.int64)
        self.window_stall_cycles = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> np.ndarray:
        """Misses issued but not yet fully answered (MSHRs in use)."""
        return self.misses_issued - self._completed

    def step(self, cycle: int) -> None:
        """Advance every core by one cycle."""
        # Advance past completed packets at the window head (bounded
        # sweep; anything left continues next cycle).
        if self._head_dirty:
            complete = self._complete.reshape(-1)
            for _ in range(4):
                can = (self._head < self.misses_issued) & complete[self._head_slot()]
                if not can.any():
                    self._head_dirty = False
                    break
                self._head += can

        outstanding = self.outstanding
        has_inflight = self._head < self.misses_issued
        head_pos = self._issue_pos.reshape(-1)[self._head_slot()]
        # Instructions the window still admits past the oldest miss.
        window_room = np.where(
            has_inflight, head_pos + self.window_size - self.retired, np.inf
        )
        mshr_full = outstanding >= self.mshr_limit
        backpressure = self.network.request_backpressure()
        window_full = window_room <= 0
        stalled = self.active & (mshr_full | backpressure | window_full)
        run = self.active ^ stalled
        self.stall_cycles += stalled
        self.window_stall_cycles += self.active & window_full

        adv = np.where(
            run,
            np.minimum(
                self.issue_width,
                np.minimum(np.maximum(self._insns_until_miss, 0.0), window_room),
            ),
            0.0,
        )
        self.retired += adv
        self.epoch_insns += adv
        self._insns_until_miss -= adv

        missers = run & (self._insns_until_miss <= 0)
        nodes = np.flatnonzero(missers)
        if nodes.size == 0:
            return
        self._issue_misses(nodes, cycle)

    def _head_slot(self) -> np.ndarray:
        """Flat ring slot of every core's oldest incomplete miss."""
        return self._ring_base + (self._head & (SEQ_RING - 1))

    def _issue_misses(self, nodes: np.ndarray, cycle: int) -> None:
        """Issue one L1-miss request per node in *nodes*.

        Shared tail of :meth:`step`: also called by the native backend
        (which computes the misser set in C but must draw destinations
        and gaps from the same RNG streams, in the same order, as the
        pure-numpy path).
        """
        dest = self.locality.sample(nodes, self.rng)
        issued = self.misses_issued[nodes]
        seq = issued & (SEQ_RING - 1)
        ok = self.network.enqueue_requests(
            nodes, dest, self.request_flits, cycle=cycle, seq=seq
        )
        accepted, issued, seq = (nodes, issued, seq) if ok.all() else (
            nodes[ok], issued[ok], seq[ok])
        slot = accepted * SEQ_RING + seq
        self._issue_pos.reshape(-1)[slot] = self.retired[accepted]
        self._recv.reshape(-1)[slot] = 0
        self._complete.reshape(-1)[slot] = False
        self.misses_issued[accepted] = issued + 1
        self.epoch_flits[accepted] += self.request_flits + self.reply_flits
        self._insns_until_miss[accepted] = self.behavior.sample_gap(
            accepted, self.rng
        )
        # Rejected misses (request queue full) retry naturally: the gap
        # stays at zero and backpressure stalls the core.

    def on_reply_flits(self, nodes: np.ndarray, seqs: np.ndarray) -> None:
        """Account reply flits delivered to their requesters this cycle.

        With eject width > 1 a node may receive several flits of the
        same packet in one cycle, so accumulation must tolerate
        duplicate (node, seq) pairs.
        """
        if nodes.size == 0:
            return
        slot = nodes * SEQ_RING + seqs
        recv = self._recv.reshape(-1)
        complete = self._complete.reshape(-1)
        np.add.at(recv, slot, 1)
        done = slot[(recv[slot] >= self.reply_flits) & ~complete[slot]]
        if done.size == 0:
            return
        if done.size > 1:
            # Two flits of one packet can finish it in the same cycle:
            # count each packet once.
            done.sort(kind="stable")
            done = done[np.concatenate(([True], done[1:] != done[:-1]))]
        complete[done] = True
        # A node can finish several packets in one cycle (eject width > 1),
        # so the increment must accumulate over duplicate indices.
        np.add.at(self._completed, done // SEQ_RING, 1)
        self._head_dirty = True

    # ------------------------------------------------------------------
    # Chaos fail-stop interface
    # ------------------------------------------------------------------
    def halt_node(self, node: int) -> None:
        """Fail-stop one core: it retires nothing and issues no misses."""
        self.active[node] = False
        self._insns_until_miss[node] = np.inf

    def revive_node(self, node: int) -> None:
        """Restart a halted core after its router recovers.

        The miss gap is re-sampled in event order from the shared
        destination stream, so revival stays deterministic for a fixed
        chaos schedule.  Nodes that never ran an application stay idle.
        """
        if not self.behavior.active[node]:
            return
        self.active[node] = True
        gap = self.behavior.sample_gap(
            np.asarray([node], dtype=np.int64), self.rng
        )
        self._insns_until_miss[node] = float(gap[0])

    # ------------------------------------------------------------------
    # Congestion-controller interface
    # ------------------------------------------------------------------
    def measured_ipf(self, floor_flits: int = 1) -> np.ndarray:
        """Instructions-per-Flit over the current epoch (§4).

        Nodes that injected no traffic report an effectively infinite
        IPF (they are CPU-bound for the epoch).
        """
        flits = np.maximum(self.epoch_flits, floor_flits)
        ipf = self.epoch_insns / flits
        ipf[self.epoch_flits == 0] = np.inf
        return ipf

    def reset_epoch(self) -> None:
        """Start a new measurement epoch (controller period T)."""
        self.epoch_insns[:] = 0.0
        self.epoch_flits[:] = 0

    # ------------------------------------------------------------------
    def ipc(self, cycles: int) -> np.ndarray:
        """Per-node instructions per cycle over *cycles* elapsed."""
        if cycles <= 0:
            return np.zeros(self.num_nodes)
        return self.retired / cycles
