"""Tests for the §7-inspired extensions: hot-spot traffic, the
fairness-aware controller, and latency percentiles."""

import numpy as np
import pytest

from repro import (
    FairCentralController,
    HotspotLocality,
    Mesh2D,
    SimulationConfig,
    Simulator,
    make_category_workload,
    make_homogeneous_workload,
)
from repro.control import CentralController, ControlParams, EpochView
from repro.network.base import NetworkStats


@pytest.mark.slow
class TestHotspotLocality:
    def test_validation(self, mesh8):
        with pytest.raises(ValueError):
            HotspotLocality(mesh8, hot_nodes=[27], hot_fraction=0.0)
        with pytest.raises(ValueError):
            HotspotLocality(mesh8, hot_nodes=[])
        with pytest.raises(ValueError):
            HotspotLocality(mesh8, hot_nodes=[999])

    def test_hot_fraction_of_traffic_hits_hot_nodes(self, mesh8):
        loc = HotspotLocality(mesh8, hot_nodes=[27], hot_fraction=0.4)
        rng = np.random.default_rng(0)
        src = rng.integers(0, 64, 20_000)
        dest = loc.sample(src, rng)
        frac = float((dest == 27).mean())
        assert frac == pytest.approx(0.4, abs=0.03)

    def test_never_self_directed(self, mesh8):
        loc = HotspotLocality(mesh8, hot_nodes=[5, 50], hot_fraction=0.8)
        rng = np.random.default_rng(1)
        src = np.full(5000, 5, dtype=np.int64)  # a hot node itself
        dest = loc.sample(src, rng)
        assert (dest != 5).all()

    def test_single_hot_node_self_traffic_falls_back(self, mesh8):
        loc = HotspotLocality(mesh8, hot_nodes=[5], hot_fraction=1.0)
        rng = np.random.default_rng(2)
        dest = loc.sample(np.full(2000, 5, dtype=np.int64), rng)
        assert (dest != 5).all()

    def test_creates_congestion_hotspot_in_simulation(self, rng):
        """Traffic concentration starves the hot node's neighborhood."""
        wl = make_category_workload("H", 64, rng)
        topo_probe = Mesh2D(8)
        hot = HotspotLocality(topo_probe, hot_nodes=[27], hot_fraction=0.5)
        cfg = SimulationConfig(wl, seed=2, epoch=1000, locality=hot)
        res = Simulator(cfg).run(4000)
        baseline_cfg = SimulationConfig(
            wl, seed=2, epoch=1000, locality="exponential", locality_param=1.0
        )
        base = Simulator(baseline_cfg).run(4000)
        # The hot node serializes half of all requests: system throughput
        # collapses, and starvation is strongly skewed — nodes in the hot
        # region are blocked far more than the network's median node
        # (the paper's "hot-spots of high utilization", §7).
        assert res.throughput_per_node < base.throughput_per_node * 0.5
        starv = res.port_starvation_rate[res.active]
        assert starv.max() > 2 * float(np.median(starv))


def _view(ipf, sigma, epoch_ipc=None):
    ipf = np.asarray(ipf, dtype=float)
    return EpochView(
        cycle=0,
        ipf=ipf,
        starvation_rate=np.asarray(sigma, dtype=float),
        active=np.ones(ipf.shape, dtype=bool),
        utilization=0.8,
        epoch_ipc=None if epoch_ipc is None else np.asarray(epoch_ipc, dtype=float),
    )


@pytest.mark.slow
class TestFairController:
    def test_validation(self):
        with pytest.raises(ValueError):
            FairCentralController(max_slowdown=1.0)

    def test_matches_paper_mechanism_without_progress_data(self):
        fair = FairCentralController(ControlParams())
        base = CentralController(ControlParams())
        view = _view([1.0, 1.0, 500.0], [0.7, 0.0, 0.0])
        np.testing.assert_allclose(fair.on_epoch(view), base.on_epoch(view))

    def test_slowed_node_exempted(self):
        fair = FairCentralController(ControlParams(), max_slowdown=3.0)
        # node 0: crawling (IPC 0.5 of 3 achievable -> slowdown 6)
        # node 1: healthy (IPC 2.5 -> slowdown 1.2)
        view = _view([1.0, 1.0, 500.0], [0.7, 0.0, 0.0],
                     epoch_ipc=[0.5, 2.5, 3.0])
        rates = fair.on_epoch(view)
        assert rates[0] == 0.0  # beyond the slowdown cap: exempt
        assert rates[1] > 0.0  # healthy intensive node still throttled

    def test_partial_headroom_scales_rate(self):
        fair = FairCentralController(ControlParams(), max_slowdown=3.0)
        base = CentralController(ControlParams())
        view_full = _view([1.0, 500.0], [0.7, 0.0], epoch_ipc=[3.0, 3.0])
        view_half = _view([1.0, 500.0], [0.7, 0.0], epoch_ipc=[1.5, 3.0])
        full = fair.on_epoch(view_full)[0]
        half = fair.on_epoch(view_half)[0]
        assert full == pytest.approx(base.on_epoch(view_full)[0])
        assert 0.0 < half < full

    def test_improves_worst_node_in_simulation(self, rng):
        """The slowdown cap lifts the most-throttled node's IPC."""
        wl = make_category_workload("HM", 16, rng)
        params = ControlParams(epoch=1000)

        def run(controller):
            cfg = SimulationConfig(wl, seed=6, epoch=1000, controller=controller)
            return Simulator(cfg).run(6000)

        paper = run(CentralController(params))
        fair = run(FairCentralController(params, max_slowdown=2.0))
        worst_paper = paper.ipc[paper.active].min()
        worst_fair = fair.ipc[fair.active].min()
        assert worst_fair >= worst_paper * 0.95
        assert fair.system_throughput > 0


@pytest.mark.slow
class TestLatencyPercentiles:
    def test_histogram_percentiles_match_reference(self):
        stats = NetworkStats()
        stats.init_arrays(4)
        rng = np.random.default_rng(0)
        lats = rng.integers(0, 200, 5000)
        stats.record_latencies(lats)
        for p in (50, 95, 99):
            ref = int(np.percentile(lats, p, method="inverted_cdf"))
            assert abs(stats.latency_percentile(p) - ref) <= 1

    def test_empty_histogram(self):
        stats = NetworkStats()
        stats.init_arrays(4)
        assert stats.latency_percentile(99) == 0

    def test_percentile_validation(self):
        stats = NetworkStats()
        stats.init_arrays(4)
        with pytest.raises(ValueError):
            stats.latency_percentile(101)

    def test_tail_bucket_absorbs_outliers(self):
        stats = NetworkStats()
        stats.init_arrays(4)
        stats.record_latencies(np.array([5, 5, 10_000]))
        assert stats.latency_percentile(100) == NetworkStats.LATENCY_HIST_BUCKETS - 1

    def test_exposed_on_simulation_result(self):
        wl = make_homogeneous_workload("mcf", 16)
        res = Simulator(SimulationConfig(wl, seed=1, epoch=500)).run(2000)
        p50 = res.latency_percentile(50)
        p99 = res.latency_percentile(99)
        assert 0 < p50 <= p99
        assert p99 <= res.max_net_latency
