"""Unit and invariant tests for the buffered baseline network."""

import functools
import json

import numpy as np
import pytest

from repro import SimulationConfig, Simulator, make_category_workload
from repro.native import native_available
from repro.network import CreditFlowControl, RouterEngine
from repro.network.flit import FLIT_REPLY, pack_meta
from repro.topology.mesh import EAST, NORTH, SOUTH

BACKENDS = [
    "numpy",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="no C compiler for the native backend"
    )),
]


class TestSinglePacket:
    def test_corner_to_corner_latency(self, mesh4):
        """6 hops plus one NI-buffer cycle on an empty network."""
        net = RouterEngine(mesh4, CreditFlowControl())
        net.enqueue_requests(np.array([0]), np.array([15]), 1, cycle=0)
        for c in range(40):
            ej = net.step(c)
            if ej.node.size:
                assert ej.node[0] == 15
                assert c == 19
                return
        pytest.fail("flit never delivered")

    def test_no_deflection_counter(self, mesh4):
        net = RouterEngine(mesh4, CreditFlowControl())
        rng = np.random.default_rng(0)
        for c in range(200):
            srcs = np.flatnonzero(rng.random(16) < 0.4)
            if srcs.size:
                dests = (srcs + 1 + rng.integers(0, 15, srcs.size)) % 16
                net.enqueue_requests(srcs, dests, 1, cycle=c)
            net.step(c)
        assert net.stats.deflections == 0

    def test_seq_preserved(self, mesh4):
        net = RouterEngine(mesh4, CreditFlowControl())
        net.enqueue_replies(
            np.array([3]), pack_meta(np.array([12]), 0, FLIT_REPLY, 42), 1,
            cycle=0,
        )
        for c in range(40):
            ej = net.step(c)
            if ej.node.size:
                assert ej.seq[0] == 42
                assert ej.kind[0] == FLIT_REPLY
                return
        pytest.fail("flit never delivered")

    def test_rejects_bad_buffer_capacity(self, mesh4):
        with pytest.raises(ValueError):
            RouterEngine(mesh4, CreditFlowControl(0))


class TestBuffering:
    def test_flits_queue_instead_of_deflecting(self, mesh4):
        """Two flits to one destination: both delivered, one cycle apart."""
        net = RouterEngine(mesh4, CreditFlowControl())
        net.enqueue_requests(np.array([1, 4]), np.array([5, 5]), 1, cycle=0)
        times = []
        for c in range(30):
            ej = net.step(c)
            times.extend([c] * ej.node.size)
        assert len(times) == 2
        assert times[1] == times[0] + 1  # waits one cycle in a buffer

    def test_conservation_under_load(self, mesh8):
        rng = np.random.default_rng(4)
        net = RouterEngine(mesh8, CreditFlowControl())
        sent = 0
        for c in range(300):
            srcs = np.flatnonzero(rng.random(64) < 0.5)
            if srcs.size:
                dests = (srcs + 1 + rng.integers(0, 63, srcs.size)) % 64
                sent += int(net.enqueue_requests(srcs, dests, 1, cycle=c).sum())
            net.step(c)
        for c in range(300, 3000):
            net.step(c)
            if net.stats.ejected_flits == sent:
                break
        assert net.stats.injected_flits == sent
        assert net.stats.ejected_flits == sent
        assert net.in_flight_flits() == 0

    def test_buffer_occupancy_never_exceeds_capacity(self, mesh4):
        net = RouterEngine(mesh4, CreditFlowControl(4))
        rng = np.random.default_rng(8)
        for c in range(400):
            srcs = np.flatnonzero(rng.random(16) < 0.8)
            if srcs.size:
                dests = (srcs + 1 + rng.integers(0, 15, srcs.size)) % 16
                net.enqueue_requests(srcs, dests, 1, cycle=c)
            net.step(c)
            assert net.buffers.count.max() <= 4
            assert (net.buffers.count[:, :4] + net.reserved >= 0).all()

    def test_credits_prevent_overflow_with_tiny_buffers(self, mesh4):
        """Lossless even with 1-flit buffers: flits wait for credits."""
        net = RouterEngine(mesh4, CreditFlowControl(1))
        rng = np.random.default_rng(8)
        sent = 0
        for c in range(200):
            srcs = np.flatnonzero(rng.random(16) < 0.5)
            if srcs.size:
                dests = (srcs + 1 + rng.integers(0, 15, srcs.size)) % 16
                sent += int(net.enqueue_requests(srcs, dests, 1, cycle=c).sum())
            net.step(c)
            assert net.buffers.count.max() <= 1
        for c in range(200, 8000):
            net.step(c)
            if net.stats.ejected_flits == sent:
                break
        assert net.stats.ejected_flits == sent

    def test_latency_grows_with_load(self, mesh4):
        """In-network latency rises under congestion — the traditional-
        network behavior the paper contrasts with bufferless NoCs."""

        def run(p):
            net = RouterEngine(mesh4, CreditFlowControl())
            rng = np.random.default_rng(1)
            for c in range(600):
                srcs = np.flatnonzero(rng.random(16) < p)
                if srcs.size:
                    dests = (srcs + 1 + rng.integers(0, 15, srcs.size)) % 16
                    net.enqueue_requests(srcs, dests, 1, cycle=c)
                net.step(c)
            return net.stats.avg_latency

        assert run(0.9) > run(0.05) * 1.5


class TestSameCycleCredit:
    """A grant in the credit walk sees the pops of lower-numbered output
    ports in the same cycle, not those of its own port or higher ones."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("drain_port, waits", [
        (NORTH, False), (EAST, True), (SOUTH, True),
    ], ids=["lower-port", "same-port", "higher-port"])
    def test_sender_into_a_full_fifo(self, backend, drain_port, waits):
        workload = make_category_workload("H", 16, np.random.default_rng(1))
        sim = Simulator(SimulationConfig(
            workload, seed=1, network="buffered", buffer_capacity=1,
            backend=backend,
        ))
        net, p = sim.network, sim.network.num_ports
        neighbor, reverse = net.topology.neighbor, net.topology.reverse_port
        # Router a sends east into b's 1-flit FIFO from a, which is full
        # with a flit leaving b through drain_port toward an empty FIFO.
        a = 5
        b, b_in = int(neighbor[a, EAST]), int(reverse[a, EAST])
        dest = [neighbor[b, drain_port], neighbor[b, EAST]]
        net.buffers.push(
            np.array([b * (p + 1) + b_in, a * (p + 1) + p]),
            pack_meta(dest, [b, a], 0), np.zeros(2, np.int64),
        )
        step = sim.pipeline.phase("network").fn
        step(1)
        assert net.buffers.count[b, b_in] == 0  # b drained either way
        assert net.buffers.count[a, p] == int(waits)
        assert net.reserved[b, b_in] == int(not waits)
        step(2)
        assert net.buffers.count[a, p] == 0
        assert net.reserved[b, b_in] == 1


class TestInjection:
    def test_starvation_when_ni_buffer_full(self, mesh4):
        net = RouterEngine(mesh4, CreditFlowControl(2))
        # flood node 0's NI with packets toward a congested corner
        for c in range(300):
            net.enqueue_requests(np.array([0, 1, 4]), np.array([15, 15, 15]), 1, cycle=c)
            net.step(c)
        assert net.stats.starved_cycles.sum() > 0

    def test_throttle_gate_applies(self, mesh4):
        def run(rate):
            net = RouterEngine(mesh4, CreditFlowControl())
            rates = np.zeros(16)
            rates[0] = rate
            net.set_throttle_rates(rates)
            for c in range(300):
                net.enqueue_requests(np.array([0]), np.array([15]), 1, cycle=c)
                net.step(c)
            return net.stats.injected_per_node[0]

        assert run(0.9) < run(0.0) * 0.3


# ----------------------------------------------------------------------
# Arbitration reaches the buffered model through the simulator
# ----------------------------------------------------------------------
#: ejected flits at 16 nodes / seed 1 / 4,000 cycles, per policy
ARBITRATION_EJECTED = {
    "oldest_first": 42_393,
    "youngest_first": 36_820,
    "random": 42_647,
}


@functools.lru_cache(maxsize=None)
def _loaded_run(arbitration, backend="numpy"):
    workload = make_category_workload("H", 16, np.random.default_rng(1))
    config = SimulationConfig(
        workload, seed=1, network="buffered", arbitration=arbitration,
        backend=backend,
    )
    return Simulator(config).run(4000)


@pytest.mark.slow
class TestArbitration:
    """``network="buffered"`` used to drop ``arbitration`` and ``rng`` on
    the way to the engine: every policy ran oldest-first, on both
    backends, under three different cache keys."""

    def test_policies_change_the_outcome_at_load(self):
        results = {a: _loaded_run(a) for a in ARBITRATION_EJECTED}
        assert {
            a: r.ejected_flits for a, r in results.items()
        } == ARBITRATION_EJECTED
        latencies = {r.avg_net_latency for r in results.values()}
        assert len(latencies) == 3

    @pytest.mark.skipif(
        not native_available(), reason="no C compiler for the native backend"
    )
    @pytest.mark.parametrize("arbitration", ARBITRATION_EJECTED)
    def test_native_matches_numpy(self, arbitration):
        native = _loaded_run(arbitration, "native")
        assert native.ejected_flits == ARBITRATION_EJECTED[arbitration]
        assert json.dumps(
            native.to_dict(), sort_keys=True, default=str
        ) == json.dumps(
            _loaded_run(arbitration).to_dict(), sort_keys=True, default=str
        )
