"""Tests for the MinBD-style hybrid network (deflection + side buffer).

Covers the PR-4 acceptance behavior: the hybrid variant deflects
strictly less than BLESS and holds strictly fewer buffered flits than
the buffered baseline on a Fig-3-style hotspot workload, while staying
lossless (conservation + guardrails) and reachable through the
config/CLI/harness stack.
"""

import numpy as np
import pytest

from repro import Mesh2D
from repro.config import SimulationConfig
from repro.harness import JobSpec, run_job
from repro.network import (
    NETWORK_MODELS,
    DeflectFlowControl,
    HybridFlowControl,
    RouterEngine,
    build_network,
)
from repro.rng import child_rng
from repro.sim.simulator import Simulator
from repro.traffic.locality import HotspotLocality
from repro.traffic.workloads import make_category_workload


def _drive(net, cycles, nodes, p, seed=4):
    """Random all-to-all traffic; returns flits accepted into the NI."""
    rng = np.random.default_rng(seed)
    sent = 0
    for c in range(cycles):
        srcs = np.flatnonzero(rng.random(nodes) < p)
        if srcs.size:
            dests = (srcs + 1 + rng.integers(0, nodes - 1, srcs.size)) % nodes
            sent += int(net.enqueue_requests(srcs, dests, 1, cycle=c).sum())
        net.step(c)
    return sent


class TestHybridUnit:
    def test_single_packet_delivered(self, mesh4):
        net = RouterEngine(mesh4, HybridFlowControl())
        net.enqueue_requests(np.array([0]), np.array([15]), 1, cycle=0)
        for c in range(40):
            ej = net.step(c)
            if ej.node.size:
                assert ej.node[0] == 15
                return
        pytest.fail("flit never delivered")

    def test_rejects_bad_side_buffer_capacity(self, mesh4):
        with pytest.raises(ValueError):
            RouterEngine(mesh4, HybridFlowControl(side_buffer_capacity=0))

    def test_conservation_under_load(self, mesh8):
        net = RouterEngine(mesh8, HybridFlowControl(side_buffer_capacity=2))
        sent = _drive(net, 300, 64, 0.5)
        assert (
            net.stats.injected_flits
            == net.stats.ejected_flits + net.in_flight_flits()
        )
        for c in range(300, 5000):
            net.step(c)
            if net.stats.ejected_flits == sent:
                break
        assert net.stats.ejected_flits == sent
        assert net.in_flight_flits() == 0
        assert net.side_buffers.occupancy() == 0

    def test_side_buffer_respects_capacity(self, mesh4):
        net = RouterEngine(mesh4, HybridFlowControl(side_buffer_capacity=2))
        rng = np.random.default_rng(8)
        for c in range(400):
            srcs = np.flatnonzero(rng.random(16) < 0.8)
            if srcs.size:
                dests = (srcs + 1 + rng.integers(0, 15, srcs.size)) % 16
                net.enqueue_requests(srcs, dests, 1, cycle=c)
            net.step(c)
            assert net.side_buffers.count.max() <= 2
            assert net.side_buffers.count.min() >= 0

    def test_side_buffer_actually_captures(self, mesh4):
        """Under load the side buffer must absorb some deflections."""
        net = RouterEngine(mesh4, HybridFlowControl())
        _drive(net, 400, 16, 0.8)
        assert net.stats.buffer_writes > 0
        assert net.stats.buffer_reads > 0

    def test_deflects_less_than_bless_same_traffic(self, mesh4):
        bless = RouterEngine(mesh4, DeflectFlowControl())
        hybrid = RouterEngine(mesh4, HybridFlowControl())
        _drive(bless, 500, 16, 0.7)
        _drive(hybrid, 500, 16, 0.7)
        assert hybrid.stats.deflections < bless.stats.deflections


class TestBuildNetwork:
    def test_factory_dispatches_all_models(self, mesh4):
        w = make_category_workload("H", 16, child_rng(1, "factory"))
        for name, recipe in NETWORK_MODELS.items():
            cfg = SimulationConfig(w, network=name)
            sim = Simulator(cfg)
            assert type(sim.network) is RouterEngine
            assert type(sim.network.flow) is type(recipe(cfg))

    def test_factory_rejects_unknown_name(self, mesh4):
        w = make_category_workload("H", 16, child_rng(1, "factory"))
        cfg = SimulationConfig(w)
        cfg.network = "wormhole"  # bypass __post_init__ validation
        with pytest.raises(ValueError, match="wormhole"):
            build_network(cfg, Mesh2D(4))

    def test_config_rejects_unknown_network(self):
        w = make_category_workload("H", 16, child_rng(1, "factory"))
        with pytest.raises(ValueError, match="unknown network"):
            SimulationConfig(w, network="wormhole")

    def test_config_rejects_bad_side_buffer(self):
        w = make_category_workload("H", 16, child_rng(1, "factory"))
        with pytest.raises(ValueError, match="side_buffer_capacity"):
            SimulationConfig(w, side_buffer_capacity=0)


def _hotspot_result(network: str):
    """One Fig-3-style hotspot run; returns (result, network stats)."""
    workload = make_category_workload("H", 64, child_rng(9, "hybrid-hot"))
    topology = Mesh2D(8)
    cfg = SimulationConfig(
        workload,
        seed=3,
        epoch=500,
        network=network,
        locality=HotspotLocality(
            topology, hot_nodes=(27, 36), hot_fraction=0.3,
        ),
        check_invariants=True,
    )
    sim = Simulator(cfg)
    result = sim.run(2500)
    return result, sim.network.stats


@pytest.mark.slow
class TestHybridAcceptance:
    """The PR acceptance comparison on hotspot traffic (ISSUE 4)."""

    @pytest.fixture(scope="class")
    def runs(self):
        return {n: _hotspot_result(n) for n in ("bless", "hybrid", "buffered")}

    def test_deflection_rate_strictly_below_bless(self, runs):
        assert 0.0 < runs["hybrid"][0].deflection_rate
        assert runs["hybrid"][0].deflection_rate < runs["bless"][0].deflection_rate

    def test_buffer_occupancy_strictly_below_buffered(self, runs):
        hybrid_occ = runs["hybrid"][1].avg_buffer_occupancy
        buffered_occ = runs["buffered"][1].avg_buffer_occupancy
        assert 0.0 < hybrid_occ < buffered_occ

    def test_bufferless_baseline_holds_nothing(self, runs):
        assert runs["bless"][1].avg_buffer_occupancy == 0.0


class TestHybridThroughHarness:
    def test_harness_job_runs_hybrid(self):
        workload = make_category_workload("H", 16, child_rng(2, "hybrid-job"))
        spec = JobSpec.for_workload(
            workload, 800, seed=5, epoch=400, network="hybrid",
            config={"side_buffer_capacity": 2},
        )
        result = run_job(spec)
        assert result.cycles == 800
        assert result.injected_flits > 0

    def test_scaling_sweep_accepts_hybrid(self):
        from repro.experiments.sweeps import scaling_sweep

        out = scaling_sweep(
            sizes=(16,), cycles_for=lambda n: 400,
            networks=("hybrid",), epoch=200,
        ).run(jobs=1)
        ((size, point),) = out["hybrid"]
        assert size == 16
        assert point.cycles == 400
