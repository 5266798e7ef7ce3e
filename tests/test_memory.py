"""Unit tests for the shared-cache service model."""

import re

import numpy as np
import pytest

from repro.cpu.memory import MemorySystem
from repro.native import accel
from repro.network.flit import (
    FLIT_REPLY,
    FLIT_REQUEST,
    meta_dest,
    meta_kind,
    meta_seq,
    pack_meta,
)


class FakeNetwork:
    def __init__(self, full_nodes=(), num_nodes=16):
        self.num_nodes = num_nodes
        self.replies = []
        self.full_nodes = set(full_nodes)

    def enqueue_replies(self, nodes, meta, flits, cycle=0):
        nodes = np.asarray(nodes)
        assert (meta_kind(meta) == FLIT_REPLY).all()
        ok = np.array([n not in self.full_nodes for n in nodes.tolist()])
        for n, d, q, o in zip(nodes.tolist(), meta_dest(meta).tolist(),
                              meta_seq(meta).tolist(), ok):
            if o:
                self.replies.append((cycle, n, d, q))
        return ok


def requests(servers, requesters, seqs):
    """``on_requests`` arguments: request words ejected at *servers*."""
    servers = np.asarray(servers, dtype=np.int64)
    return servers, pack_meta(servers, requesters, FLIT_REQUEST, seqs)


class TestServiceLatency:
    def test_reply_after_exact_latency(self):
        """A request ejected during cycle c (reported after step(c))
        produces its reply during step(c + l2_latency)."""
        net = FakeNetwork()
        mem = MemorySystem(net, l2_latency=6)
        for c in range(20):
            mem.step(c)
            if c == 0:
                mem.on_requests(*requests([3], [7], [9]))
        assert len(net.replies) == 1
        cycle, server, requester, seq = net.replies[0]
        assert cycle == 6
        assert (server, requester, seq) == (3, 7, 9)

    def test_latency_one(self):
        net = FakeNetwork()
        mem = MemorySystem(net, l2_latency=1)
        mem.step(0)
        mem.on_requests(*requests([0], [1], [0]))
        mem.step(1)
        assert net.replies and net.replies[0][0] == 1

    def test_rejects_zero_latency(self):
        with pytest.raises(ValueError):
            MemorySystem(FakeNetwork(), l2_latency=0)

    def test_empty_request_batches_ignored(self):
        net = FakeNetwork()
        mem = MemorySystem(net, l2_latency=3)
        mem.on_requests(*requests([], [], []))
        for c in range(10):
            mem.step(c)
        assert not net.replies
        assert mem.pending_replies() == 0


class TestSerialization:
    def test_one_reply_per_server_per_cycle(self):
        """Two requests hitting one slice: replies on consecutive cycles."""
        net = FakeNetwork()
        mem = MemorySystem(net, l2_latency=4)
        for c in range(20):
            mem.step(c)
            if c == 0:
                mem.on_requests(*requests([5, 5], [1, 2], [0, 0]))
        cycles = [r[0] for r in net.replies]
        assert cycles == [4, 5]
        assert {r[2] for r in net.replies} == {1, 2}

    def test_full_queue_defers_and_retries(self):
        net = FakeNetwork(full_nodes=[5])
        mem = MemorySystem(net, l2_latency=2)
        mem.on_requests(*requests([5], [1], [0]))
        for c in range(5):
            mem.step(c)
        assert not net.replies
        assert mem.pending_replies() == 1
        net.full_nodes = set()
        mem.step(5)
        assert len(net.replies) == 1

    def test_no_request_lost_under_bursts(self):
        rng = np.random.default_rng(0)
        net = FakeNetwork()
        mem = MemorySystem(net, l2_latency=3)
        total = 0
        for c in range(100):
            servers = rng.integers(0, 4, size=rng.integers(0, 6))
            if servers.size:
                mem.on_requests(*requests(servers, servers + 10, 0))
                total += servers.size
            mem.step(c)
        for c in range(100, 300):
            mem.step(c)
        assert len(net.replies) == total
        assert mem.pending_replies() == 0
        assert mem.requests_serviced == total
        assert mem.replies_issued == total


class TestBounds:
    """The service ring and the pending list are bounded exactly as the
    compiled kernel bounds them, and overflow with its named errors."""

    @staticmethod
    def _message(name):
        return "^" + re.escape(accel._ERRORS[name]) + "$"

    def test_overfilled_service_slot_is_named(self):
        net = FakeNetwork(num_nodes=4)
        mem = MemorySystem(net, l2_latency=3)
        assert mem.slot_capacity == 4  # one ejected flit per node
        mem.on_requests(*requests([0, 1, 2], [3, 3, 3], [0, 1, 2]))
        with pytest.raises(RuntimeError,
                           match=self._message("MEM_RING_OVERFLOW")):
            mem.on_requests(*requests([0, 1], [2, 2], [3, 4]))

    def test_overfilled_pending_list_is_named(self):
        net = FakeNetwork(full_nodes=range(4), num_nodes=4)
        mem = MemorySystem(net, l2_latency=1, mshr_limit=1)
        assert mem.pending_capacity == 4 * 1 + 4 + 8
        with pytest.raises(RuntimeError,
                           match=self._message("PENDING_OVERFLOW")):
            for c in range(mem.pending_capacity):
                mem.on_requests(*requests(range(4), 0, c % 256))
                mem.step(c)
        assert c == mem.pending_capacity // 4  # raised when it overflowed
