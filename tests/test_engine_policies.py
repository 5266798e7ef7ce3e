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
from repro.guardrails import FaultConfig, FaultModel, InvariantViolation
from repro.network import build_network
from repro.network.engine import (
    ARBITRATION_POLICIES,
    CreditFlowControl,
    DeflectFlowControl,
    HybridFlowControl,
    OldestFirst,
    RandomArbitration,
    RouterEngine,
    YoungestFirst,
    lowbit,
)
from repro.network.flit import meta_src, pack_meta, priority_key
from repro.topology import Mesh2D, Torus2D
from repro.topology.zoo import chiplet, express

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


class TestPortBitmasks:
    """The deflection allocator's link bitmasks (kernels.c's rule)."""

    @staticmethod
    def _argmax_rule(masks):
        bits = (masks[:, None] >> np.arange(32)) & 1 == 1
        return np.where(bits.any(axis=1), np.argmax(bits, axis=1), -1)

    def test_lowbit_matches_argmax_rule(self):
        small = np.arange(1 << 10, dtype=np.int64)
        wide = np.random.default_rng(4).integers(0, 1 << 32, 20_000)
        for masks in (small, wide, np.int64(1) << np.arange(32)):
            assert (lowbit(masks) == self._argmax_rule(masks)).all()

    @staticmethod
    def _closer_ports(net, dist):
        """Reference ``(node, dest, port)`` mask, gathered per port:
        link up, and its neighbor strictly closer to dest on the
        healthy graph."""
        topo = net.topology
        nodes = np.arange(topo.num_nodes)[:, None]
        safe = np.where(topo.link_exists, topo.neighbor, 0).astype(np.int64)
        d_next = dist[safe[:, None, :], nodes.T[:, :, None]]
        return net.link_up[:, None, :] & (d_next < dist[:, :, None])

    @pytest.mark.parametrize("name, topology", [
        ("mesh", lambda: Mesh2D(4)),
        ("torus", lambda: Torus2D(5)),
        ("chiplet", lambda: chiplet(8, 8, 4)),
        ("express", lambda: express(8, 8, 4)),
    ])
    @pytest.mark.parametrize("flow", [DeflectFlowControl, CreditFlowControl])
    def test_fault_table_matches_closer_ports(self, name, topology, flow):
        topo = topology()
        p = topo.num_ports
        for seed in range(4):
            fm = FaultModel(topo, FaultConfig(
                link_fault_rate=0.15, router_fault_rate=0.05, seed=seed
            ))
            net = RouterEngine(topo, flow(), fault_model=fm)
            # A chaos drain in flight: quiesce one healthy link.
            node, port = map(int, np.argwhere(fm.link_up)[seed])
            fm.quiesce_link(node, port)
            net.on_topology_change()
            expect = self._closer_ports(net, fm.healthy_distance)
            table = net._fault_table
            got = (table[:, :, None] >> np.arange(p)) & 1 == 1
            assert (got == expect).all(), (name, seed)
            assert (net._link_bits == fm.link_up @ (1 << np.arange(p))).all()

    def test_fault_free_has_no_table(self, mesh4):
        net = RouterEngine(mesh4, DeflectFlowControl())
        assert net._fault_table is None

    @pytest.mark.parametrize("flow", [DeflectFlowControl, HybridFlowControl])
    def test_no_free_link_is_a_named_error(self, mesh4, flow):
        """A flit with neither a healthy nor a spare link free raises
        instead of overwriting whichever flit holds port 0."""
        net = RouterEngine(mesh4, flow())
        p = net.num_ports
        slot = net._cursor
        for port in (0, 1):
            net._ring_meta[slot, 5 * p + port] = pack_meta(0, port, 0)
            net._ring_birth[slot, 5 * p + port] = port
        net._link_bits[5] = 0b0001  # one link left for two flits
        if flow is HybridFlowControl:
            net.side_buffers.count[5] = net.side_buffer_capacity
        with pytest.raises(InvariantViolation, match="router 5") as exc:
            net.step(7)
        assert exc.value.cycle == 7
        assert exc.value.invariant == "deflect_port"
