"""Unit and invariant tests for the BLESS deflection network."""

import numpy as np
import pytest

from repro import SimulationConfig, Simulator, make_category_workload
from repro.native import native_available
from repro.network import DeflectFlowControl, RouterEngine
from repro.network.flit import FLIT_REPLY


def drive(net, schedule, cycles):
    """Run *cycles* steps applying {cycle: (srcs, dests)} injections.

    Returns the list of (cycle, EjectedFlits).
    """
    delivered = []
    for c in range(cycles):
        if c in schedule:
            srcs, dests = schedule[c]
            net.enqueue_requests(np.asarray(srcs), np.asarray(dests), 1, cycle=c)
        ej = net.step(c)
        if ej.node.size:
            delivered.append((c, ej))
    return delivered


class TestSinglePacket:
    def test_corner_to_corner_latency(self, mesh4):
        """6 hops at 3 cycles/hop with an empty network."""
        net = RouterEngine(mesh4, DeflectFlowControl())
        delivered = drive(net, {0: ([0], [15])}, 40)
        assert len(delivered) == 1
        cycle, ej = delivered[0]
        assert cycle == 18
        assert ej.node[0] == 15
        assert ej.src[0] == 0
        assert net.stats.avg_hops == 6.0

    def test_adjacent_delivery(self, mesh4):
        net = RouterEngine(mesh4, DeflectFlowControl())
        delivered = drive(net, {0: ([5], [6])}, 10)
        assert delivered[0][0] == 3  # one hop
        assert net.stats.avg_latency == 3.0

    def test_no_deflections_when_alone(self, mesh4):
        net = RouterEngine(mesh4, DeflectFlowControl())
        drive(net, {0: ([0], [15])}, 40)
        assert net.stats.deflections == 0

    def test_seq_and_kind_preserved(self, mesh4):
        net = RouterEngine(mesh4, DeflectFlowControl())
        net.enqueue_replies(np.array([1]), np.array([14]), 1, cycle=0, seq=77)
        for c in range(40):
            ej = net.step(c)
            if ej.node.size:
                assert ej.kind[0] == FLIT_REPLY
                assert ej.seq[0] == 77
                return
        pytest.fail("flit never delivered")

    def test_hop_latency_parameter(self, mesh4):
        net = RouterEngine(mesh4, DeflectFlowControl(), hop_latency=1)
        delivered = drive(net, {0: ([0], [15])}, 20)
        assert delivered[0][0] == 6

    def test_torus_wraparound_shortcut(self, torus4):
        net = RouterEngine(torus4, DeflectFlowControl())
        delivered = drive(net, {0: ([0], [15])}, 30)
        # (0,0) -> (3,3) is 2 hops on a 4x4 torus.
        assert delivered[0][0] == 6


class TestContentionAndDeflection:
    def test_oldest_first_wins_port(self, mesh4):
        """Two flits contending for one output: the older flit wins it.

        Node 0's flit (injected at cycle 0) transits node 2 at cycle 6
        heading EAST to node 3.  Node 2 tries to inject its own flit to
        node 3 that same cycle: the in-flight (older) flit keeps the
        productive port, the injected one is forced onto another link
        and takes a longer path.
        """
        net = RouterEngine(mesh4, DeflectFlowControl())
        net.enqueue_requests(np.array([0]), np.array([3]), 1, cycle=0)
        arrivals = {}
        for c in range(40):
            if c == 6:
                net.enqueue_requests(np.array([2]), np.array([3]), 1, cycle=c)
            ej = net.step(c)
            for node, src in zip(ej.node, ej.src):
                arrivals[int(src)] = c
            if len(arrivals) == 2:
                break
        assert arrivals[0] == 9  # 3 hops, never deflected
        assert arrivals[2] > 9  # lost the port, took a detour

    def test_ejection_contention_deflects_loser(self, mesh4):
        """Two flits reaching the destination together: one is deflected
        and arrives later (eject width 1)."""
        net = RouterEngine(mesh4, DeflectFlowControl())
        # 1 and 4 are both one hop from 5.
        net.enqueue_requests(np.array([1, 4]), np.array([5, 5]), 1, cycle=0)
        times = []
        for c in range(30):
            ej = net.step(c)
            times.extend([c] * ej.node.size)
        assert len(times) == 2
        assert times[0] == 3
        assert times[1] > times[0]
        assert net.stats.deflections >= 1

    def test_eject_width_two_delivers_both(self, mesh4):
        net = RouterEngine(mesh4, DeflectFlowControl(2))
        net.enqueue_requests(np.array([1, 4]), np.array([5, 5]), 1, cycle=0)
        times = []
        for c in range(30):
            ej = net.step(c)
            times.extend([c] * ej.node.size)
        assert times == [3, 3]
        assert net.stats.deflections == 0

    def test_all_flits_eventually_delivered_under_load(self, mesh8):
        rng = np.random.default_rng(3)
        net = RouterEngine(mesh8, DeflectFlowControl())
        sent = 0
        for c in range(300):
            srcs = np.flatnonzero(rng.random(64) < 0.4)
            dests = (srcs + 1 + rng.integers(0, 63, srcs.size)) % 64
            sent += int(net.enqueue_requests(srcs, dests, 1, cycle=c).sum())
            net.step(c)
        for c in range(300, 1200):
            net.step(c)
            if net.stats.ejected_flits == net.stats.injected_flits:
                break
        assert net.stats.injected_flits == sent
        assert net.stats.ejected_flits == sent
        assert net.in_flight_flits() == 0

    @pytest.mark.parametrize("eject_width", [1, 2])
    def test_multiset_delivery_exact(self, mesh4, eject_width):
        """No loss, no duplication: delivered multiset == injected multiset."""
        from collections import Counter

        rng = np.random.default_rng(9)
        net = RouterEngine(mesh4, DeflectFlowControl(eject_width))
        sent, got = Counter(), Counter()
        seq = np.zeros(16, dtype=np.int64)
        for c in range(1800):
            if c < 500:
                srcs = np.flatnonzero(rng.random(16) < 0.5)
                if srcs.size:
                    dests = (srcs + 1 + rng.integers(0, 15, srcs.size)) % 16
                    seqs = seq[srcs] % 256
                    ok = net.enqueue_requests(srcs, dests, 1, cycle=c, seq=seqs)
                    for s, d, q, o in zip(srcs, dests, seqs, ok):
                        if o:
                            sent[(int(s), int(d), int(q))] += 1
                    seq[srcs[ok]] += 1
            ej = net.step(c)
            for n, s, q in zip(ej.node, ej.src, ej.seq):
                got[(int(s), int(n), int(q))] += 1
            if c > 500 and sum(got.values()) == sum(sent.values()):
                break
        assert got == sent

    def test_starvation_counted_when_blocked(self, mesh4):
        """A node with a queued flit and no free port counts as starved."""
        net = RouterEngine(mesh4, DeflectFlowControl())
        net.set_throttle_rates(np.zeros(16))
        # Saturate node 5's links with through traffic from its neighbors.
        rng = np.random.default_rng(5)
        for c in range(200):
            srcs = np.array([1, 4, 6, 9])
            dests = np.array([9, 6, 4, 1])
            net.enqueue_requests(srcs, dests, 1, cycle=c)
            net.enqueue_requests(np.array([5]), np.array([0]), 1, cycle=c)
            net.step(c)
        assert net.stats.starved_cycles.sum() > 0


class TestThrottling:
    def test_throttled_node_injects_less(self, mesh4):
        def run(rate):
            net = RouterEngine(mesh4, DeflectFlowControl())
            rates = np.zeros(16)
            rates[0] = rate
            net.set_throttle_rates(rates)
            for c in range(400):
                net.enqueue_requests(np.array([0]), np.array([15]), 1, cycle=c)
                net.step(c)
            return net.stats.injected_per_node[0]

        assert run(0.9) < run(0.0) * 0.35

    def test_responses_bypass_throttle(self, mesh4):
        net = RouterEngine(mesh4, DeflectFlowControl())
        net.set_throttle_rates(np.full(16, 0.75))
        for c in range(100):
            net.enqueue_replies(np.array([0]), np.array([15]), 1, cycle=c)
            net.step(c)
        # one reply injected every cycle despite the 75% request throttle
        assert net.stats.injected_per_node[0] >= 95

    def test_throttle_blocked_counts_starved(self, mesh4):
        net = RouterEngine(mesh4, DeflectFlowControl())
        net.set_throttle_rates(np.full(16, 0.75))
        for c in range(128):
            net.enqueue_requests(np.array([0]), np.array([15]), 1, cycle=c)
            net.step(c)
        # Algorithm 3: blocked attempts set starved(cycle).
        assert net.starvation.rate()[0] == pytest.approx(0.75, abs=0.1)


class TestArbitrationPolicies:
    def test_rejects_unknown_policy(self, mesh4):
        with pytest.raises(ValueError):
            RouterEngine(mesh4, DeflectFlowControl(), arbitration="lifo")

    @pytest.mark.parametrize("policy", ["oldest_first", "youngest_first", "random"])
    def test_all_policies_deliver(self, mesh4, policy):
        net = RouterEngine(
            mesh4, DeflectFlowControl(), arbitration=policy,
            rng=np.random.default_rng(0),
        )
        rng = np.random.default_rng(11)
        sent = 0
        for c in range(200):
            srcs = np.flatnonzero(rng.random(16) < 0.3)
            if srcs.size:
                dests = (srcs + 1 + rng.integers(0, 15, srcs.size)) % 16
                sent += int(net.enqueue_requests(srcs, dests, 1, cycle=c).sum())
            net.step(c)
        for c in range(200, 2000):
            net.step(c)
            if net.stats.ejected_flits == sent:
                break
        assert net.stats.ejected_flits == sent

    def test_rejects_bad_eject_width(self, mesh4):
        with pytest.raises(ValueError):
            RouterEngine(mesh4, DeflectFlowControl(0))
        with pytest.raises(ValueError):
            RouterEngine(mesh4, DeflectFlowControl(5))


def _mesh3d_run(eject_width, **overrides):
    workload = make_category_workload("H", 27, np.random.default_rng(2))
    config = SimulationConfig(
        workload, seed=2, topology="mesh3d", eject_width=eject_width,
        **overrides,
    )
    return Simulator(config).run(1500).to_dict()


class TestEjectWidthBound:
    """The upper bound is the router's port count, not a hard-coded 4:
    a 6-port ``mesh3d`` router may eject on all six inputs."""

    def test_error_names_the_topologys_port_count(self, mesh4):
        with pytest.raises(ValueError, match="between 1 and 4"):
            RouterEngine(mesh4, DeflectFlowControl(5))
        with pytest.raises(ValueError, match="between 1 and 6"):
            _mesh3d_run(7)

    @pytest.mark.skipif(
        not native_available(), reason="no C compiler for the native backend"
    )
    def test_mesh3d_ejects_on_all_six_ports_on_both_backends(self):
        checked = _mesh3d_run(6, check_invariants=True)
        native = _mesh3d_run(6, backend="native")
        assert checked.pop("guardrails")["invariant_checks"] == 1500
        assert native.pop("guardrails")["invariant_checks"] == 0
        assert checked == native


class TestStats:
    def test_utilization_bounded(self, mesh4):
        net = RouterEngine(mesh4, DeflectFlowControl())
        rng = np.random.default_rng(2)
        for c in range(300):
            srcs = np.flatnonzero(rng.random(16) < 0.6)
            if srcs.size:
                dests = (srcs + 1 + rng.integers(0, 15, srcs.size)) % 16
                net.enqueue_requests(srcs, dests, 1, cycle=c)
            net.step(c)
        util = net.stats.utilization(mesh4.num_links)
        assert 0.0 < util <= 1.0

    def test_injection_latency_measured(self, mesh4):
        net = RouterEngine(mesh4, DeflectFlowControl())
        net.enqueue_requests(np.array([0]), np.array([15]), 1, cycle=0)
        for c in range(5):
            net.step(c)
        # empty network: injected on the first step, zero queueing delay
        assert net.injection_latency_count == 1
        assert net.injection_latency_sum == 0
