"""Additional cross-module integration coverage."""

import pytest

from repro import (
    DistributedController,
    HotspotLocality,
    Mesh2D,
    SimulationConfig,
    Simulator,
    Workload,
    make_homogeneous_workload,
)

# Full-simulation module: runs real multi-epoch simulations end to end.
# Deselect with -m 'not slow' for a fast inner loop; CI runs everything.
pytestmark = pytest.mark.slow


class TestIdleNodes:
    def test_partially_idle_workload(self):
        """Half the chip idle: only active nodes retire and inject."""
        apps = tuple("mcf" if i % 2 == 0 else None for i in range(16))
        wl = Workload(apps)
        cfg = SimulationConfig(wl, seed=1, epoch=500)
        sim = Simulator(cfg)
        res = sim.run(2000)
        idle = ~res.active
        assert (res.ipc[idle] == 0).all()
        # idle nodes issue no requests, but they still serve their shared
        # L2 slice, so they DO inject reply packets
        assert (sim.cores.misses_issued[idle] == 0).all()
        assert (sim.network.stats.injected_per_node[idle] > 0).any()
        assert res.ipc[res.active].min() > 0

    def test_single_active_node_is_uncontended(self):
        apps = ("mcf",) + (None,) * 15
        wl = Workload(apps)
        res = Simulator(SimulationConfig(wl, seed=1, epoch=500)).run(3000)
        assert res.mean_starvation < 0.01
        # the only deflections left are the requester's own two-flit
        # reply packets contending for its single ejection port
        assert res.deflection_rate < 0.25


class TestDistributedOnBuffered:
    def test_distributed_controller_works_on_buffered(self, rng):
        """The congestion bit propagates through the buffered router too."""
        wl = make_homogeneous_workload("mcf", 16)
        cfg = SimulationConfig(
            wl, seed=2, epoch=400, network="buffered",
            controller=DistributedController(starvation_threshold=0.05),
        )
        res = Simulator(cfg).run(2500)
        assert res.system_throughput > 0


class TestHubPlacement:
    def test_hub_is_central(self):
        wl = make_homogeneous_workload("mcf", 16)
        sim = Simulator(SimulationConfig(wl, seed=1))
        assert sim.hub == sim.topology.node_at(2, 2)


class TestHotspotInConfig:
    def test_locality_object_passes_through(self):
        wl = make_homogeneous_workload("mcf", 16)
        loc = HotspotLocality(Mesh2D(4), hot_nodes=[5], hot_fraction=0.5)
        cfg = SimulationConfig(wl, seed=1, epoch=500, locality=loc)
        sim = Simulator(cfg)
        assert sim.locality is loc
        res = sim.run(1500)
        assert res.ejected_flits > 0


class TestLongRunStability:
    def test_seq_ring_wraparound_is_safe(self):
        """Runs long enough for per-node miss counts to exceed the
        256-entry sequence ring several times."""
        wl = make_homogeneous_workload("mcf", 16)
        cfg = SimulationConfig(wl, seed=3, epoch=1000, phase_sigma=0.0)
        sim = Simulator(cfg)
        res = sim.run(12_000)
        assert int(sim.cores.misses_issued.min()) > 256
        assert (sim.cores.outstanding >= 0).all()
        assert (sim.cores.outstanding <= sim.cores.mshr_limit).all()
