"""Arbitration-policy equivalence for the unified router engine.

Arbitration lives in pluggable
:class:`~repro.network.engine.ArbitrationPolicy` objects.  These tests
pin the equivalence contract: the named policies must compute exactly
the keys the pre-refactor code computed, and the ``"bless"`` network
``build_network`` assembles from a config must behave identically to a
hand-assembled ``RouterEngine`` carrying the same policy — same seed,
same traffic, same ejection order.
"""

import numpy as np
import pytest

from repro import SimulationConfig, make_homogeneous_workload
from repro.network import build_network
from repro.network.engine import (
    ARBITRATION_POLICIES,
    DeflectFlowControl,
    OldestFirst,
    RandomArbitration,
    RouterEngine,
    YoungestFirst,
)
from repro.network.flit import meta_src, pack_meta, priority_key

_KEY_MAX = np.iinfo(np.int64).max


def _drive(net, cycles, nodes, p, seed=11):
    """Random all-to-all traffic; returns the full ejection trace."""
    rng = np.random.default_rng(seed)
    trace = []
    for c in range(cycles):
        srcs = np.flatnonzero(rng.random(nodes) < p)
        if srcs.size:
            dests = (srcs + 1 + rng.integers(0, nodes - 1, srcs.size)) % nodes
            net.enqueue_requests(srcs, dests, 1, cycle=c)
        ej = net.step(c)
        trace.append(
            (c, ej.node.tolist(), ej.src.tolist(), ej.seq.tolist())
        )
    return trace


def _random_flits(rng, n):
    src = rng.integers(0, 64, n)
    meta = pack_meta(rng.integers(0, 64, n), src, 1, rng.integers(0, 1000, n))
    birth = rng.integers(0, 10_000, n)
    return meta, birth.astype(np.int64)


def _keys(policy, engine, birth, meta):
    """*policy*'s keys through its one entry point, ``keys_into``."""
    out = np.empty(birth.shape, dtype=np.int64)
    return policy.keys_into(engine, birth, meta, out, np.empty_like(out))


class TestPolicyKeys:
    """The key formulas each named policy must implement."""

    def test_registry_names(self):
        assert set(ARBITRATION_POLICIES) == {
            "oldest_first", "youngest_first", "random"
        }
        for name, cls in ARBITRATION_POLICIES.items():
            assert cls.name == name

    def test_oldest_first_is_priority_key(self, rng):
        meta, birth = _random_flits(rng, 200)
        keys = _keys(OldestFirst(), None, birth, meta)
        assert np.array_equal(keys, priority_key(birth, meta_src(meta)))

    def test_youngest_first_inverts_oldest(self, rng):
        meta, birth = _random_flits(rng, 200)
        oldest = _keys(OldestFirst(), None, birth, meta)
        youngest = _keys(YoungestFirst(), None, birth, meta)
        assert np.array_equal(youngest, -oldest)

    def test_random_draws_from_engine_stream(self, mesh4):
        """Random keys come off the engine's arbitration RNG, nothing else."""
        net = RouterEngine(
            mesh4, DeflectFlowControl(), arbitration="random",
            rng=np.random.default_rng(77),
        )
        meta = np.zeros(50, dtype=np.int64)
        birth = np.zeros(50, dtype=np.int64)
        keys = _keys(RandomArbitration(), net, birth, meta)
        expected = np.random.default_rng(77).integers(
            0, _KEY_MAX, size=50, dtype=np.int64
        )
        assert np.array_equal(keys, expected)

    def test_unknown_policy_rejected(self, mesh4):
        with pytest.raises(ValueError, match="fifo"):
            RouterEngine(mesh4, DeflectFlowControl(), arbitration="fifo")


class TestBlessEngineEquivalence:
    """The registry's "bless" model must be exactly engine +
    DeflectFlowControl + policy."""

    @staticmethod
    def _built(topology, rng=None, **overrides):
        config = SimulationConfig(
            make_homogeneous_workload("mcf", 16), network="bless", **overrides
        )
        return build_network(config, topology, rng=rng)

    @pytest.mark.parametrize("policy", sorted(ARBITRATION_POLICIES))
    @pytest.mark.parametrize("traffic_seed", [3, 11, 42])
    def test_same_ejection_order(self, mesh4, policy, traffic_seed):
        bless = self._built(
            mesh4, arbitration=policy, rng=np.random.default_rng(9)
        )
        engine = RouterEngine(
            mesh4, DeflectFlowControl(eject_width=1), arbitration=policy,
            rng=np.random.default_rng(9),
        )
        t1 = _drive(bless, 300, 16, 0.6, seed=traffic_seed)
        t2 = _drive(engine, 300, 16, 0.6, seed=traffic_seed)
        assert t1 == t2
        assert bless.stats.deflections == engine.stats.deflections
        assert bless.stats.flit_hops == engine.stats.flit_hops
        assert bless.stats.latency_sum == engine.stats.latency_sum

    def test_eject_width_carries_over(self, mesh4):
        bless = self._built(mesh4, eject_width=2)
        engine = RouterEngine(mesh4, DeflectFlowControl(eject_width=2))
        t1 = _drive(bless, 200, 16, 0.7)
        t2 = _drive(engine, 200, 16, 0.7)
        assert t1 == t2


class TestPolicyBehavior:
    """The policies must actually change arbitration outcomes."""

    def test_oldest_vs_youngest_diverge(self, mesh4):
        oldest = RouterEngine(
            mesh4, DeflectFlowControl(), arbitration="oldest_first"
        )
        youngest = RouterEngine(
            mesh4, DeflectFlowControl(), arbitration="youngest_first"
        )
        t1 = _drive(oldest, 400, 16, 0.7)
        t2 = _drive(youngest, 400, 16, 0.7)
        assert t1 != t2

    def test_random_reproducible_per_seed(self, mesh4):
        a = RouterEngine(
            mesh4, DeflectFlowControl(), arbitration="random",
            rng=np.random.default_rng(5),
        )
        b = RouterEngine(
            mesh4, DeflectFlowControl(), arbitration="random",
            rng=np.random.default_rng(5),
        )
        assert _drive(a, 300, 16, 0.7) == _drive(b, 300, 16, 0.7)

    def test_random_differs_across_seeds(self, mesh4):
        a = RouterEngine(
            mesh4, DeflectFlowControl(), arbitration="random",
            rng=np.random.default_rng(5),
        )
        b = RouterEngine(
            mesh4, DeflectFlowControl(), arbitration="random",
            rng=np.random.default_rng(6),
        )
        assert _drive(a, 300, 16, 0.7) != _drive(b, 300, 16, 0.7)

    @pytest.mark.parametrize("policy", sorted(ARBITRATION_POLICIES))
    def test_all_policies_remain_lossless(self, mesh4, policy):
        net = RouterEngine(
            mesh4, DeflectFlowControl(), arbitration=policy,
            rng=np.random.default_rng(2),
        )
        _drive(net, 300, 16, 0.7)
        assert (
            net.stats.injected_flits
            == net.stats.ejected_flits + net.in_flight_flits()
        )
