"""Vectorized per-node flit queues.

Each node has fixed-capacity FIFO queues (request queue fed by the core's
L1 misses, response queue fed by the local shared-cache slice).  A queue
entry describes one *packet*: its packed ``meta`` word
(``pack_meta(dest, 0, kind, seq)``: the injecting node ORs in the
source), how many flits of it remain to inject, and its enqueue cycle.
The injection stage draws one flit per cycle from the head entry; the
entry pops when its last flit leaves.

All operations take arrays of node indices so that thousands of nodes can
be serviced per simulated cycle without Python-level loops.  Node indices
within one call must be unique (each node enqueues/dequeues at most one
item per cycle), which the callers guarantee by construction.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FlitQueueArray"]


class FlitQueueArray:
    """A ring-buffer FIFO of packet entries for every node.

    Parameters
    ----------
    num_nodes:
        Number of per-node queues.
    capacity:
        Maximum entries per node.  A full queue exerts backpressure on
        the producer (the core stalls; the paper's self-throttling).
    """

    def __init__(self, num_nodes: int, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be positive")
        self.num_nodes = num_nodes
        self.capacity = capacity
        self.meta = np.zeros((num_nodes, capacity), dtype=np.int64)
        self.flits = np.zeros((num_nodes, capacity), dtype=np.int16)
        self.stamp = np.zeros((num_nodes, capacity), dtype=np.int64)
        self.head = np.zeros(num_nodes, dtype=np.int32)
        self.count = np.zeros(num_nodes, dtype=np.int32)

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    @property
    def is_full(self) -> np.ndarray:
        """Boolean mask of nodes whose queue cannot accept an entry."""
        return self.count >= self.capacity

    @property
    def nonempty(self) -> np.ndarray:
        """Boolean mask of nodes with at least one queued entry."""
        return self.count > 0

    def queued_flits_total(self) -> int:
        """Total flits waiting across all nodes (for conservation checks)."""
        # A slot is occupied when it lies within [head, head + count) on
        # the ring; summing the masked flits counts stays loop-free.
        offsets = np.arange(self.capacity, dtype=np.int32)
        occupied = (
            (offsets[None, :] - self.head[:, None]) % self.capacity
            < self.count[:, None]
        )
        return int(self.flits[occupied].sum())

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def push(self, nodes: np.ndarray, meta, flits: int, stamp: int) -> np.ndarray:
        """Enqueue one entry at each node in *nodes*.

        *meta* is one word per node (or one for all); every entry has
        *flits* flits and enqueue cycle *stamp*.  Returns the mask of
        successful pushes; entries for full queues are rejected (the
        caller decides whether that means a stall or a counted drop).
        *nodes* must contain unique indices.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        count = self.count[nodes]
        ok = count < self.capacity
        if not ok.all():
            nodes, count = nodes[ok], count[ok]
            if np.ndim(meta):
                meta = meta[ok]
        at = nodes * self.capacity + (
            (self.head[nodes] + count) % self.capacity
        )
        self.meta.reshape(-1)[at] = meta
        self.flits.reshape(-1)[at] = flits
        self.stamp.reshape(-1)[at] = stamp
        self.count[nodes] = count + 1
        return ok

    def push_burst(self, node: int, meta: np.ndarray, flits: int,
                   stamp: int) -> int:
        """Enqueue up to ``len(meta)`` entries into *one* node's queue.

        Entries are appended in order until the queue is full; because
        they all target the same queue, stopping at the first rejected
        entry is identical to accepting exactly the remaining-capacity
        prefix.  Returns the number of entries accepted.  (This is the
        hub's per-epoch rate-update burst in
        :meth:`~repro.sim.Simulator._inject_control_traffic`.)
        """
        meta = np.asarray(meta, dtype=np.int64)
        space = int(self.capacity - self.count[node])
        k = min(meta.size, max(space, 0))
        if k == 0:
            return 0
        slots = (self.head[node] + self.count[node]
                 + np.arange(k, dtype=np.int64)) % self.capacity
        self.meta[node, slots] = meta[:k]
        self.flits[node, slots] = flits
        self.stamp[node, slots] = stamp
        self.count[node] += k
        return k

    def purge_node(self, node: int) -> int:
        """Discard every queued entry at *node*; returns flits discarded.

        Chaos fail-stop support: a dying router's un-injected packets
        are dropped (they never entered the network, so conservation
        accounting is unaffected) and counted for the campaign report.
        """
        count = int(self.count[node])
        if count == 0:
            return 0
        slots = (
            self.head[node] + np.arange(count, dtype=np.int64)
        ) % self.capacity
        flits = int(self.flits[node, slots].sum())
        self.count[node] = 0
        return flits

    def take_flit(self, nodes: np.ndarray):
        """Remove one flit from each head entry; pop entries that drain.

        Returns ``(meta, stamp)`` arrays for the taken flits: the
        entry's word (no source, no hops) and its enqueue cycle.
        """
        at = nodes * self.capacity + self.head[nodes]
        meta, stamp = self.meta.take(at), self.stamp.take(at)
        flits = self.flits.reshape(-1)
        left = flits.take(at) - 1
        flits[at] = left
        popped = nodes[left == 0]
        self.head[popped] = (self.head[popped] + 1) % self.capacity
        self.count[popped] -= 1
        return meta, stamp
