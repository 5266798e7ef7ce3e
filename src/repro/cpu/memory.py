"""Shared-cache service model.

The paper's memory system (Table 2): private L1s whose misses enter the
network, and a shared, distributed, *perfect* L2 — every request is a hit
at the addressed slice.  A request flit ejected at its home slice is
serviced after a fixed L2 latency, producing a data-reply packet
(``reply_flits`` flits, 32-byte block over 128-bit links = 2 flits)
addressed back to the requester.  Replies are enqueued at the serving
node's response queue and are never throttled (§5, "how to throttle").

The state is the layout ``kernels.c``'s ``memory_phase`` and
``eject_phase`` work on, shared through the pointer table: a ring of
``l2_latency`` service slots of (server, reply word) pairs with a count
each, and a bounded pending list of replies that must retry.  A reply
is one packed word (:func:`~repro.network.flit.reply_meta`).
"""

from __future__ import annotations

import numpy as np

from repro.network.flit import meta_dest, reply_meta

__all__ = ["MemorySystem", "PENDING_OVERFLOW", "RING_OVERFLOW"]

#: Overflow errors, raised with the same text by both backends.
RING_OVERFLOW = "memory service ring overflow"
PENDING_OVERFLOW = "pending-reply list overflow"


class MemorySystem:
    """Schedules reply packets for serviced requests.

    A service slot holds what one cycle can eject: ``eject_width``
    request flits per node (the network's, 1 when it has none).  The
    pending list is bounded by every MSHR of every core plus one slot.
    """

    def __init__(self, network, l2_latency: int = 6, reply_flits: int = 2,
                 mshr_limit: int = 16):
        if l2_latency < 1:
            raise ValueError("l2 latency must be at least 1 cycle")
        self.network = network
        self.l2_latency = l2_latency
        self.reply_flits = reply_flits
        n = network.num_nodes
        self.slot_capacity = n * getattr(network, "eject_width", 1)
        self.pending_capacity = n * mshr_limit + self.slot_capacity + 8
        shape = (l2_latency, self.slot_capacity)
        self.ring_server = np.zeros(shape, dtype=np.int64)
        self.ring_reply = np.zeros(shape, dtype=np.int64)
        self.ring_count = np.zeros(l2_latency, dtype=np.int64)
        self._cursor = 0
        # Replies that must retry, in order; the first _pending entries.
        self.pending_server = np.zeros(self.pending_capacity, dtype=np.int64)
        self.pending_reply = np.zeros(self.pending_capacity, dtype=np.int64)
        self._pending = 0
        # First-occurrence scatter target, one entry per server.
        self._first = np.empty(n, dtype=np.int64)
        self.requests_serviced = 0
        self.replies_issued = 0

    def pending_replies(self) -> int:
        """Replies scheduled or retrying but not yet queued (for checks)."""
        return int(self.ring_count.sum()) + self._pending

    def on_requests(self, servers: np.ndarray, metas: np.ndarray) -> None:
        """Record ejected request flits (their packed words); replies
        emerge after the L2 latency, addressed to each request's source
        with its seq, so requesters can match them to their misses."""
        k = servers.size
        if k == 0:
            return
        self.requests_serviced += k
        slot = (self._cursor + self.l2_latency - 1) % self.l2_latency
        start = int(self.ring_count[slot])
        if start + k > self.slot_capacity:
            raise RuntimeError(RING_OVERFLOW)
        self.ring_server[slot, start:start + k] = servers
        self.ring_reply[slot, start:start + k] = reply_meta(metas)
        self.ring_count[slot] = start + k

    # ------------------------------------------------------------------
    # Chaos fail-stop interface
    # ------------------------------------------------------------------
    def _lists(self):
        """``(server, reply)`` views of every ring slot's live entries
        and of the pending list."""
        p = self._pending
        lists = [
            (self.ring_server[slot, :k], self.ring_reply[slot, :k])
            for slot, k in enumerate(self.ring_count.tolist())
        ]
        return lists + [(self.pending_server[:p], self.pending_reply[:p])]

    def pending_for_server(self, node: int) -> int:
        """Scheduled or retrying replies that will inject from *node*."""
        return sum(int((server == node).sum()) for server, _ in self._lists())

    def migrate_server(self, old: int, new: int) -> None:
        """Re-home not-yet-issued replies after an L2 slice re-stripes."""
        for server, _ in self._lists():
            server[server == old] = new

    def drop_requester(self, node: int) -> int:
        """Discard replies addressed to *node* (fail-stopped requester).

        Returns the number of reply packets dropped.  Their flits were
        never injected, so network flit conservation is unaffected; the
        dead core will never wait on them.
        """
        dropped, kept = 0, []
        for server, reply in self._lists():
            keep = meta_dest(reply) != node
            k = int(np.count_nonzero(keep))
            server[:k], reply[:k] = server[keep], reply[keep]
            kept.append(k)
            dropped += keep.size - k
        self.ring_count[:] = kept[:-1]
        self._pending = kept[-1]
        return dropped

    def step(self, cycle: int) -> None:
        """Enqueue due replies; a full response queue defers to next cycle.

        Retries go first, then the due slot, in order.  A node enqueues
        at most one reply per cycle: the first occurrence of each server
        attempts it.  The new pending list is the attempts that found a
        full queue, then the later occurrences, both in order.
        """
        slot = self._cursor
        k = int(self.ring_count[slot])
        self.ring_count[slot] = 0
        self._cursor = (slot + 1) % self.l2_latency
        p = self._pending
        if k == 0 and p == 0:
            return
        servers = self.ring_server[slot, :k]
        replies = self.ring_reply[slot, :k]
        if p:
            servers = np.concatenate((self.pending_server[:p], servers))
            replies = np.concatenate((self.pending_reply[:p], replies))
        order = np.arange(servers.size)
        first = self._first
        first[servers] = servers.size
        np.minimum.at(first, servers, order)
        is_first = first[servers] == order
        attempt_s, attempt_r = (servers, replies) if is_first.all() else (
            servers[is_first], replies[is_first])
        ok = self.network.enqueue_replies(
            attempt_s, attempt_r, self.reply_flits, cycle=cycle
        )
        issued = int(np.count_nonzero(ok))
        self.replies_issued += issued
        m = servers.size - issued
        if m > self.pending_capacity:
            raise RuntimeError(PENDING_OVERFLOW)
        if m:
            failed, left = ~ok, ~is_first
            self.pending_server[:m] = np.concatenate((attempt_s[failed], servers[left]))
            self.pending_reply[:m] = np.concatenate((attempt_r[failed], replies[left]))
        self._pending = m
