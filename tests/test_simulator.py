"""Integration tests: the full closed-loop system."""

import numpy as np
import pytest

from repro import (
    CentralController,
    ControlParams,
    DistributedController,
    SimulationConfig,
    Simulator,
    StaticThrottleController,
    make_category_workload,
    make_homogeneous_workload,
)
from repro.network.flit import FLIT_CONTROL

# Full-simulation module: runs real multi-epoch simulations end to end.
# Deselect with -m 'not slow' for a fast inner loop; CI runs everything.
pytestmark = pytest.mark.slow


def run(workload, cycles=3000, **kw):
    kw.setdefault("seed", 5)
    kw.setdefault("epoch", 500)
    cfg = SimulationConfig(workload, **kw)
    sim = Simulator(cfg)
    return sim, sim.run(cycles)


class TestBasicRuns:
    def test_cpu_bound_workload_full_speed(self):
        wl = make_homogeneous_workload("povray", 16)
        _, res = run(wl, phase_sigma=0.0)
        assert res.throughput_per_node == pytest.approx(3.0, rel=0.02)
        assert res.network_utilization < 0.01

    def test_memory_bound_workload_loads_network(self):
        wl = make_homogeneous_workload("mcf", 16)
        _, res = run(wl)
        assert res.network_utilization > 0.3
        assert 0.05 < res.throughput_per_node < 2.0

    def test_rejects_zero_cycles(self):
        wl = make_homogeneous_workload("mcf", 16)
        sim = Simulator(SimulationConfig(wl))
        with pytest.raises(ValueError):
            sim.run(0)

    def test_deterministic_given_seed(self):
        wl = make_homogeneous_workload("mcf", 16)
        _, a = run(wl, seed=7)
        _, b = run(wl, seed=7)
        np.testing.assert_array_equal(a.ipc, b.ipc)
        assert a.injected_flits == b.injected_flits

    def test_different_seeds_differ(self):
        wl = make_homogeneous_workload("mcf", 16)
        _, a = run(wl, seed=7)
        _, b = run(wl, seed=8)
        assert a.injected_flits != b.injected_flits

    def test_run_is_resumable(self):
        wl = make_homogeneous_workload("mcf", 16)
        cfg = SimulationConfig(wl, seed=5, epoch=500)
        sim = Simulator(cfg)
        sim.run(1000)
        res = sim.run(1000)
        assert res.cycles == 2000

    def test_buffered_network_end_to_end(self):
        wl = make_homogeneous_workload("mcf", 16)
        _, res = run(wl, network="buffered")
        assert res.throughput_per_node > 0.1
        assert res.deflection_rate == 0.0

    def test_torus_end_to_end(self):
        wl = make_homogeneous_workload("mcf", 16)
        _, res = run(wl, topology="torus")
        assert res.throughput_per_node > 0.1

    def test_non_square_mesh(self):
        wl = make_homogeneous_workload("mcf", 32)
        _, res = run(wl, width=8, height=4)
        assert res.num_nodes == 32
        assert res.system_throughput > 0


class TestConservation:
    @pytest.mark.parametrize("network", ["bless", "buffered"])
    def test_flit_conservation(self, network):
        """Injected = ejected + in flight, misses = physical packets."""
        wl = make_homogeneous_workload("mcf", 16)
        sim, res = run(wl, network=network)
        net = sim.network
        assert net.stats.injected_flits == (
            net.stats.ejected_flits + net.in_flight_flits()
        )

    def test_outstanding_misses_match_physical_packets(self):
        """Every outstanding miss is somewhere: queued request, in-flight
        request, in L2 service, queued reply, or in-flight reply."""
        wl = make_homogeneous_workload("mcf", 16)
        sim, _ = run(wl, cycles=2500)
        cores, net, mem = sim.cores, sim.network, sim.memory

        req_queued = int(net.request_queue.count.sum())
        resp_entries = int(net.response_queue.count.sum())
        served = mem.requests_serviced
        issued = int(cores._issued.sum())
        replies_started = mem.replies_issued
        # requests not yet at their slice:
        requests_somewhere = issued - served
        # replies not yet fully delivered: count packets
        reply_flits_recv = int(cores._recv[
            np.arange(16)[:, None], np.arange(256)[None, :]
        ].sum())  # includes resets; use completion counters instead
        completed = int(cores._completed.sum())
        outstanding = int(cores.outstanding.sum())
        # misses are either: requests in transit, in L2, or replies in transit
        in_l2 = mem.pending_replies()
        replies_in_transit = replies_started - completed
        assert outstanding == requests_somewhere + in_l2 + replies_in_transit


class TestCongestionControlBehavior:
    def test_static_throttling_reduces_injection(self):
        wl = make_homogeneous_workload("mcf", 16)
        _, base = run(wl)
        _, throttled = run(wl, controller=StaticThrottleController(0.8))
        assert throttled.injected_flits < base.injected_flits

    def test_central_controller_reduces_congestion(self, rng):
        """On a congested workload the mechanism lowers utilization/
        deflections and does not collapse throughput."""
        wl = make_category_workload("H", 16, rng)
        _, base = run(wl, cycles=6000, epoch=1000)
        _, ctl = run(
            wl, cycles=6000, epoch=1000,
            controller=CentralController(ControlParams(epoch=1000)),
        )
        assert ctl.deflection_rate <= base.deflection_rate * 1.1
        assert ctl.system_throughput > base.system_throughput * 0.9

    def test_central_controller_no_op_on_light_load(self, rng):
        wl = make_category_workload("L", 16, rng)
        sim, res = run(
            wl, cycles=3000, epoch=500,
            controller=CentralController(ControlParams(epoch=500)),
        )
        assert res.epochs["mean_throttle"].max() == 0.0
        assert res.throughput_per_node == pytest.approx(3.0, rel=0.05)

    def test_distributed_controller_runs(self, rng):
        wl = make_category_workload("H", 16, rng)
        cfg = SimulationConfig(
            wl, seed=5, epoch=500, controller=DistributedController()
        )
        res = Simulator(cfg).run(3000)
        assert res.system_throughput > 0

    def test_epoch_series_recorded(self):
        wl = make_homogeneous_workload("mcf", 16)
        _, res = run(wl, cycles=2500, epoch=500)
        assert len(res.epochs) == 5
        assert "utilization" in res.epochs.names()
        assert "throughput" in res.epochs.names()


class TestControlTraffic:
    def test_control_packets_injected_when_enabled(self, rng):
        wl = make_category_workload("H", 16, rng)
        cfg = SimulationConfig(
            wl, seed=5, epoch=500, model_control_traffic=True,
            controller=CentralController(ControlParams(epoch=500)),
        )
        sim = Simulator(cfg)
        sim.run(2500)
        assert sim.control_flits_sent > 0
        # roughly 2n flits per epoch (§6.6)
        epochs = 5
        assert sim.control_flits_sent <= 2 * 16 * epochs

    def test_hub_burst_matches_per_flit_loop(self, rng):
        """The hub's rate-update burst (one vectorized push_burst) must
        accept exactly the flits the replaced one-at-a-time loop did —
        same count, same destinations, same queue state."""
        import copy

        wl = make_category_workload("H", 16, rng)
        cfg = SimulationConfig(
            wl, seed=5, epoch=500, model_control_traffic=True,
            controller=CentralController(ControlParams(epoch=500)),
        )
        sim = Simulator(cfg)
        sim.run(2400)  # land mid-epoch with realistic queue occupancy
        ref = copy.deepcopy(sim)

        # Reference: the old semantics, one push per hub->node flit,
        # stopping at the first overflow.
        nodes = np.flatnonzero(ref.cores.active)
        nodes = nodes[nodes != ref.hub]
        queue = ref.network.response_queue
        ref_sent = int(queue.push(
            nodes, np.full(nodes.size, ref.hub, dtype=np.int64),
            FLIT_CONTROL, 1, stamp=ref.cycle,
        ).sum())
        for node in nodes:
            if not queue.push(np.array([ref.hub]), np.array([node]),
                              FLIT_CONTROL, 1, stamp=ref.cycle)[0]:
                break
            ref_sent += 1

        before = sim.control_flits_sent
        sim._inject_control_traffic()
        assert sim.control_flits_sent - before == ref_sent
        real = sim.network.response_queue
        np.testing.assert_array_equal(real.count, queue.count)
        np.testing.assert_array_equal(real.head, queue.head)
        np.testing.assert_array_equal(real.dest, queue.dest)
        np.testing.assert_array_equal(real.kind, queue.kind)
        np.testing.assert_array_equal(real.stamp, queue.stamp)

    def test_hub_burst_stops_at_queue_capacity(self, rng):
        """Overflow path: with the hub's queue nearly full, only the
        remaining-capacity prefix of rate updates is accepted."""
        wl = make_category_workload("H", 16, rng)
        cfg = SimulationConfig(
            wl, seed=5, epoch=500, model_control_traffic=True,
            controller=CentralController(ControlParams(epoch=500)),
        )
        sim = Simulator(cfg)
        queue = sim.network.response_queue
        hub = sim.hub
        free = 2
        while queue.count[hub] < queue.capacity - free:
            queue.push(np.array([hub]), np.array([0]), FLIT_CONTROL, 1)
        active = np.flatnonzero(sim.cores.active)
        expected = int((active != hub).sum()) + free  # reports + prefix
        sim._inject_control_traffic()
        assert sim.control_flits_sent == expected
        assert queue.count[hub] == queue.capacity

    def test_overhead_is_negligible(self, rng):
        wl = make_category_workload("H", 16, rng)
        _, base = run(wl, cycles=3000,
                      controller=CentralController(ControlParams(epoch=500)))
        _, with_ctl = run(wl, cycles=3000, model_control_traffic=True,
                          controller=CentralController(ControlParams(epoch=500)))
        assert with_ctl.system_throughput > base.system_throughput * 0.93


class TestResultSummary:
    def test_summary_mentions_key_metrics(self):
        wl = make_homogeneous_workload("mcf", 16)
        _, res = run(wl)
        text = res.summary()
        assert "IPC/node" in text
        assert "util" in text
