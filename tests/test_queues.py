"""Unit tests for the vectorized flit queues."""

import numpy as np
import pytest

from repro.network.flit import meta_dest, meta_kind, meta_seq, pack_meta
from repro.network.queues import FlitQueueArray


def _push_one(q, node, dest, kind=0, flits=1, stamp=0, seq=0):
    return q.push(np.array([node]), pack_meta(np.array([dest]), 0, kind, seq),
                  flits, stamp)


def _take_dest(q, node):
    return int(meta_dest(q.take_flit(np.array([node]))[0])[0])


class TestPush:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlitQueueArray(4, 0)

    def test_push_and_peek(self):
        q = FlitQueueArray(4, 8)
        _push_one(q, 2, 11, kind=1)
        meta, _ = q.take_flit(np.array([2]))
        assert meta_dest(meta)[0] == 11
        assert meta_kind(meta)[0] == 1

    def test_push_empty_call(self):
        q = FlitQueueArray(4, 8)
        ok = q.push(np.zeros(0, dtype=np.int64), np.zeros(0, np.int64), 1, 0)
        assert ok.size == 0

    def test_full_queue_rejects(self):
        q = FlitQueueArray(2, 3)
        for _ in range(3):
            assert _push_one(q, 0, 1)[0]
        assert not _push_one(q, 0, 1)[0]
        assert q.is_full[0]
        assert not q.is_full[1]

    def test_vector_push_mixed_acceptance(self):
        q = FlitQueueArray(3, 1)
        _push_one(q, 0, 9)
        ok = q.push(np.array([0, 1, 2]), pack_meta(np.array([4, 5, 6]), 0, 0),
                    1, 0)
        np.testing.assert_array_equal(ok, [False, True, True])
        meta, _ = q.take_flit(np.array([1, 2]))
        np.testing.assert_array_equal(meta_dest(meta), [5, 6])

    def test_nonempty_mask(self):
        q = FlitQueueArray(3, 4)
        _push_one(q, 1, 0)
        np.testing.assert_array_equal(q.nonempty, [False, True, False])


class TestPushBurst:
    def _reference_loop(self, q, node, dests, kind, flits, stamp):
        """The replaced per-flit loop: push until the first overflow."""
        accepted = []
        for dest in dests:
            if not q.push(np.array([node]), pack_meta(dest, 0, kind),
                          flits, stamp)[0]:
                break
            accepted.append(dest)
        return accepted

    def test_accepts_all_when_space(self):
        q = FlitQueueArray(4, 8)
        dests = np.array([3, 1, 2])
        assert q.push_burst(0, pack_meta(dests, 0, 1), 1, 5) == 3
        assert q.count[0] == 3
        for expected in (3, 1, 2):  # FIFO order preserved
            meta, stamp = q.take_flit(np.array([0]))
            assert meta_dest(meta)[0] == expected
            assert meta_kind(meta)[0] == 1
            assert stamp[0] == 5

    def test_truncates_at_remaining_capacity(self):
        q = FlitQueueArray(2, 4)
        _push_one(q, 0, 9)
        _push_one(q, 0, 9)
        assert q.push_burst(0, pack_meta(np.arange(5), 0, 0), 1, 0) == 2
        assert q.count[0] == 4

    def test_full_queue_accepts_nothing(self):
        q = FlitQueueArray(1, 2)
        _push_one(q, 0, 9)
        _push_one(q, 0, 9)
        assert q.push_burst(0, pack_meta(np.arange(3), 0, 0), 1, 0) == 0
        assert q.count[0] == 2

    def test_empty_burst(self):
        q = FlitQueueArray(1, 2)
        assert q.push_burst(0, np.zeros(0, dtype=np.int64), 1, 0) == 0

    def test_wraps_around_ring(self):
        q = FlitQueueArray(1, 4)
        for _ in range(3):  # advance head into the middle of the ring
            _push_one(q, 0, 9)
            q.take_flit(np.array([0]))
        assert q.push_burst(0, pack_meta(np.array([10, 20, 30]), 0, 0), 1,
                            0) == 3
        seen = [_take_dest(q, 0) for _ in range(3)]
        assert seen == [10, 20, 30]

    def test_matches_stop_at_first_overflow_loop(self):
        """The burst is exactly the old sequential semantics: since every
        entry targets the same queue, stopping at the first overflow is
        accepting the remaining-capacity prefix."""
        rng = np.random.default_rng(0)
        for trial in range(50):
            capacity = int(rng.integers(1, 8))
            preload = int(rng.integers(0, capacity + 1))
            dests = rng.integers(0, 16, size=rng.integers(0, 10))
            a = FlitQueueArray(2, capacity)
            b = FlitQueueArray(2, capacity)
            for _ in range(preload):
                _push_one(a, 0, 99)
                _push_one(b, 0, 99)
            expected = self._reference_loop(b, 0, dests, 0, 1, stamp=7)
            assert a.push_burst(0, pack_meta(dests, 0, 0), 1, 7) == len(
                expected
            )
            assert a.count[0] == b.count[0]
            while a.count[0]:
                da = a.take_flit(np.array([0]))
                db = b.take_flit(np.array([0]))
                assert da[0][0] == db[0][0]  # meta
                assert da[1][0] == db[1][0]  # stamp


class TestTakeFlit:
    def test_single_flit_packet_pops(self):
        q = FlitQueueArray(2, 4)
        _push_one(q, 0, 7, flits=1, seq=3)
        meta, stamp = q.take_flit(np.array([0]))
        assert meta_dest(meta)[0] == 7
        assert meta_seq(meta)[0] == 3
        assert q.head[0] == 1  # popped
        assert q.count[0] == 0

    def test_multi_flit_packet_drains_over_takes(self):
        q = FlitQueueArray(2, 4)
        _push_one(q, 0, 7, flits=3)
        for i in range(3):
            meta, _ = q.take_flit(np.array([0]))
            assert meta_dest(meta)[0] == 7
            assert (q.count[0] == 0) == (i == 2)  # popped with the last
        assert q.count[0] == 0

    def test_fifo_order(self):
        q = FlitQueueArray(1, 4)
        for dest in (10, 20, 30):
            _push_one(q, 0, dest)
        seen = [_take_dest(q, 0) for _ in range(3)]
        assert seen == [10, 20, 30]

    def test_stamp_carried(self):
        q = FlitQueueArray(1, 4)
        _push_one(q, 0, 1, stamp=42)
        _, stamp = q.take_flit(np.array([0]))
        assert stamp[0] == 42

    def test_ring_wraparound(self):
        q = FlitQueueArray(1, 2)
        for round_ in range(5):
            _push_one(q, 0, round_)
            _push_one(q, 0, round_ + 100)
            a = _take_dest(q, 0)
            b = _take_dest(q, 0)
            assert (a, b) == (round_, round_ + 100)

    def test_queued_flits_total(self):
        q = FlitQueueArray(3, 4)
        _push_one(q, 0, 1, flits=2)
        _push_one(q, 1, 1, flits=3)
        assert q.queued_flits_total() == 5
        q.take_flit(np.array([1]))
        assert q.queued_flits_total() == 4
