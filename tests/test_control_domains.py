"""Tests for the hierarchical control plane: domain partitions, shard
controllers, coordinator semantics, and the control-traffic accounting.

The fast classes exercise the partition math and the controller's
decision rule on synthetic ``EpochView``s; the ``slow``-marked classes
run full simulations (central-vs-hierarchical bit-identity, coordinator
fail-stop under chaos, hub-queue drop accounting).
"""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.control.base import EpochView
from repro.control.central import CentralController, ControlParams
from repro.control.domains import (
    DomainMap,
    graph_domain_hubs,
    grid2d_domains,
    grid3d_domains,
    grid_cluster_shape,
)
from repro.control.hierarchical import HierarchicalController
from repro.control.registry import CONTROLLER_NAMES, CONTROLLERS
from repro.harness import JobSpec, run_job
from repro.network import build_network
from repro.topology.registry import (
    TOPOLOGY_NAMES,
    build_topology,
    domain_map,
    prepare_config,
)
from repro.traffic.workloads import make_homogeneous_workload


def make_topology(name: str, nodes: int, **kw):
    config = SimulationConfig(
        make_homogeneous_workload("mcf", nodes), topology=name, **kw
    )
    prepare_config(config)
    return config, build_topology(config)


class TestDomainMap:
    def test_valid_map(self):
        dm = DomainMap([0, 0, 1, 1], [0, 2], coordinator=1)
        assert dm.num_nodes == 4
        assert dm.num_domains == 2
        np.testing.assert_array_equal(dm.members(1), [2, 3])
        assert "2 domains over 4 nodes" in dm.describe()

    def test_rejects_gapped_ids(self):
        with pytest.raises(ValueError, match="cover"):
            DomainMap([0, 0, 2, 2], [0, 2], coordinator=0)

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError, match="empty"):
            DomainMap([0, 0, 2, 2], [0, 0, 2], coordinator=0)

    def test_rejects_foreign_hub(self):
        with pytest.raises(ValueError, match="lies in domain"):
            DomainMap([0, 0, 1, 1], [0, 1], coordinator=0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            DomainMap([0, 0, 1, 1], [0, 9], coordinator=0)
        with pytest.raises(ValueError, match="coordinator"):
            DomainMap([0, 0, 1, 1], [0, 2], coordinator=4)

    def test_arrays_are_immutable(self):
        dm = DomainMap([0, 0, 1, 1], [0, 2], coordinator=1)
        with pytest.raises(ValueError):
            dm.domain_of[0] = 1
        with pytest.raises(ValueError):
            dm.hubs[0] = 1


class TestGridPartition:
    def test_auto_shape_is_sqrt_clusters(self):
        # 32x32: divisors of 32 nearest sqrt(32)~6 are 4 and 8; ties
        # break low, so 4x4 domains of 8x8 nodes.
        assert grid_cluster_shape(32, 32, 0) == (4, 4)
        assert grid_cluster_shape(4, 4, 0) == (2, 2)

    def test_explicit_count_prefers_square_clusters(self):
        assert grid_cluster_shape(8, 8, 4) == (2, 2)
        assert grid_cluster_shape(8, 4, 8) == (4, 2)

    def test_impossible_count_raises(self):
        with pytest.raises(ValueError, match="rectangular domains"):
            grid_cluster_shape(8, 8, 3)

    def test_tile_multiple_constrains_edges(self):
        # 8x8 with 4-wide tiles: 16 domains would need 2x2 clusters,
        # which split tiles.
        assert grid_cluster_shape(8, 8, 4, multiple=4) == (2, 2)
        with pytest.raises(ValueError, match="tile-multiple"):
            grid_cluster_shape(8, 8, 16, multiple=4)

    def test_whole_grid_hub_matches_central_node(self):
        _, topo = make_topology("mesh", 64)
        _, hubs = grid2d_domains(8, 8, 1)
        assert hubs[0] == topo.central_node()

    def test_cluster_hubs_use_center_rule(self):
        domain_of, hubs = grid2d_domains(4, 4, 4)
        # 2x2 clusters of 2x2 nodes: hub = (ty*2+1)*4 + tx*2+1.
        np.testing.assert_array_equal(hubs, [5, 7, 13, 15])
        assert domain_of[hubs].tolist() == [0, 1, 2, 3]

    def test_grid3d_layer_bands(self):
        domain_of = grid3d_domains(4, 4, 4, 0)
        assert domain_of.tolist() == sum(([z] * 16 for z in range(4)), [])
        with pytest.raises(ValueError, match="divide"):
            grid3d_domains(4, 4, 4, 3)

    def test_graph_hubs_whole_graph_matches_central_node(self):
        _, topo = make_topology("express", 64)
        hubs = graph_domain_hubs(topo, np.zeros(64, dtype=np.int64))
        assert hubs[0] == topo.central_node()


class TestRegistryPartition:
    @pytest.mark.parametrize("name", TOPOLOGY_NAMES)
    def test_single_domain_hub_is_central_node(self, name):
        config, topo = make_topology(name, 64)
        dm = domain_map(config, topo, 1)
        assert dm.num_domains == 1
        assert int(dm.hubs[0]) == topo.central_node()
        assert dm.coordinator == topo.central_node()

    def test_chiplet_default_is_one_domain_per_tile(self):
        config, topo = make_topology("chiplet", 64, chiplet_tile=4)
        dm = domain_map(config, topo)
        assert dm.num_domains == 4
        # Tile-aligned: every domain is one 4x4 chiplet.
        for d in range(4):
            members = dm.members(d)
            x, y = members % 8, members // 8
            assert x.max() - x.min() == 3 and y.max() - y.min() == 3

    def test_mesh3d_default_is_one_domain_per_layer(self):
        config, topo = make_topology("mesh3d", 64, depth=4)
        dm = domain_map(config, topo)
        assert dm.num_domains == 4
        np.testing.assert_array_equal(dm.domain_of, np.arange(64) // 16)

    def test_hubs_always_member_of_own_domain(self):
        for name in TOPOLOGY_NAMES:
            config, topo = make_topology(name, 64)
            dm = domain_map(config, topo, 4)
            for d, hub in enumerate(dm.hubs):
                assert dm.domain_of[hub] == d


def synthetic_view(ipf, sigma, active=None):
    ipf = np.asarray(ipf, dtype=float)
    if active is None:
        active = np.ones(ipf.size, dtype=bool)
    return EpochView(
        cycle=1000,
        ipf=ipf,
        starvation_rate=np.asarray(sigma, dtype=float),
        active=np.asarray(active, dtype=bool),
        utilization=0.5,
    )


class TestHierarchicalController:
    PARAMS = ControlParams(epoch=500)

    def attached(self, nodes, num_domains, **kw):
        """A controller attached to a real *nodes*-node mesh; 4 nodes in
        2 domains partition as ``domain_of == [0, 0, 1, 1]``."""
        config, topology = make_topology("mesh", nodes)
        ctl = HierarchicalController(
            self.PARAMS, num_domains=num_domains, **kw
        )
        ctl.attach(build_network(config, topology), config)
        return ctl

    def test_registry_lists_hierarchical(self):
        assert "hierarchical" in CONTROLLER_NAMES
        assert "shards" in CONTROLLERS["hierarchical"].description

    def test_rejects_bad_mode_and_counts(self):
        with pytest.raises(ValueError, match="mode"):
            HierarchicalController(self.PARAMS, mode="anarchic")
        with pytest.raises(ValueError, match="num_domains"):
            HierarchicalController(self.PARAMS, num_domains=-1)

    def test_unbound_epoch_raises(self):
        ctl = HierarchicalController(self.PARAMS)
        with pytest.raises(RuntimeError, match="attach"):
            ctl.on_epoch(synthetic_view([1.0], [0.0]))

    def test_attach_partitions_the_mesh_it_is_given(self):
        ctl = self.attached(4, 2)
        assert ctl.domain_map.domain_of.tolist() == [0, 0, 1, 1]
        assert len(ctl.shards) == ctl.domain_map.num_domains == 2
        with pytest.raises(ValueError, match="3 rectangular domains"):
            self.attached(4, 3)

    def test_view_size_mismatch_raises(self):
        ctl = self.attached(4, 2)
        with pytest.raises(ValueError, match="covers"):
            ctl.on_epoch(synthetic_view([1.0] * 6, [0.0] * 6))

    def test_single_domain_matches_central_controller(self):
        """One whole-fabric domain reproduces Algorithm 1 bit-for-bit."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            ipf = rng.uniform(0.05, 20.0, size=16)
            sigma = rng.uniform(0.0, 1.0, size=16)
            active = rng.uniform(size=16) < 0.8
            if not active.any():
                continue
            central = CentralController(self.PARAMS)
            hier = self.attached(16, 1)
            a = central.on_epoch(synthetic_view(ipf, sigma, active))
            b = hier.on_epoch(synthetic_view(ipf, sigma, active))
            np.testing.assert_array_equal(a, b)
            assert central.last_congested == hier.last_congested
            np.testing.assert_array_equal(
                central.last_throttled, hier.last_throttled
            )

    def test_global_mode_throttles_against_global_mean(self):
        # Domain 0 congested with low IPF; domain 1 calm with high IPF.
        # Global criterion: both low-IPF nodes sit below the global
        # mean, so domain 0's nodes throttle even though domain 1 is
        # where the mean comes from.
        ctl = self.attached(4, 2, mode="global")
        rates = ctl.on_epoch(
            synthetic_view([0.1, 0.2, 10.0, 12.0], [0.9, 0.0, 0.0, 0.0])
        )
        assert ctl.last_congested
        assert (rates[:2] > 0).all() and (rates[2:] == 0).all()

    def test_local_mode_confines_congestion_to_the_domain(self):
        # Same measurements, local criterion: only domain 0 throttles,
        # and only its below-local-mean node.
        ctl = self.attached(4, 2, mode="local")
        rates = ctl.on_epoch(
            synthetic_view([0.1, 0.2, 10.0, 12.0], [0.9, 0.0, 0.0, 0.0])
        )
        assert rates[0] > 0 and (rates[1:] == 0).all()

    def test_calm_network_installs_no_throttle(self):
        ctl = self.attached(4, 2)
        rates = ctl.on_epoch(
            synthetic_view([1.0, 1.0, 1.0, 1.0], [0.0] * 4)
        )
        assert not ctl.last_congested
        assert (rates == 0).all()

    def test_coordinator_failure_degrades_to_local(self):
        view = synthetic_view([0.1, 0.2, 10.0, 12.0], [0.9, 0.0, 0.0, 0.0])
        ctl = self.attached(4, 2, mode="global")
        assert not ctl.down
        ctl.fail()
        assert ctl.down and ctl.failovers == 1
        ctl.fail()  # idempotent
        assert ctl.failovers == 1
        # run_epoch is what the simulator drives: it counts the downtime
        # and routes a down epoch to the domain-local mode.
        degraded = ctl.run_epoch(view)
        assert ctl.downtime_epochs == 1
        # While down, global mode behaves exactly like local mode.
        local = self.attached(4, 2, mode="local")
        np.testing.assert_array_equal(degraded, local.on_epoch(view))
        ctl.restore()
        restored = ctl.run_epoch(view)
        fresh = self.attached(4, 2, mode="global")
        np.testing.assert_array_equal(restored, fresh.on_epoch(view))

    def test_shard_summary_carries_mean_ingredients(self):
        shard = CentralController(self.PARAMS)
        s = shard.summarize(synthetic_view([0.5, 1.5], [0.9, 0.0]))
        assert s.congested
        assert s.ipf_sum == pytest.approx(2.0)
        assert s.active_nodes == 2
        idle = shard.summarize(
            synthetic_view([1.0], [0.9], active=[False])
        )
        assert idle == (False, 0.0, 0) or (
            not idle.congested and idle.active_nodes == 0
        )

    def test_describe_names_layout(self):
        ctl = HierarchicalController(self.PARAMS, num_domains=4, mode="local")
        assert "4 domains" in ctl.describe()
        assert "local" in ctl.describe()


# ----------------------------------------------------------------------
# Full-simulation classes below: deselect with -m 'not slow'.
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestSimulationEquivalence:
    """Acceptance pin: hierarchical with one whole-mesh domain is
    bit-identical to the central controller, control traffic and all."""

    def run_one(self, controller, topology="mesh", nodes=16, **kw):
        return run_job(JobSpec.for_workload(
            make_homogeneous_workload("mcf", nodes),
            3000,
            controller=controller,
            epoch=500,
            seed=7,
            topology=topology,
            config=dict(model_control_traffic=True, **kw),
        ))

    def test_single_domain_bit_identical_on_mesh(self):
        central = self.run_one(("central",))
        hier = self.run_one(("hierarchical", 1))
        assert central.to_dict() == hier.to_dict()

    def test_single_domain_bit_identical_on_chiplet(self):
        central = self.run_one(("central",), topology="chiplet", nodes=64)
        hier = self.run_one(
            ("hierarchical", 1), topology="chiplet", nodes=64
        )
        assert central.to_dict() == hier.to_dict()

    def test_multi_domain_run_reports_domain_counters(self):
        res = self.run_one(("hierarchical", 4), nodes=64, profile=True)
        assert res.perf is not None
        assert res.perf.control_domains == 4
        assert res.perf.control_epochs > 0
        assert len(res.perf.per_domain_control_flits) == 4
        assert all(x > 0 for x in res.perf.per_domain_control_flits)
        assert sum(res.perf.per_domain_control_flits) <= \
            res.perf.control_flits_sent


@pytest.mark.slow
class TestCoordinatorChaos:
    def run_chaos(self, mode="global"):
        from repro.chaos.schedule import ChaosConfig, ChaosEvent
        from repro.sim.simulator import Simulator

        chaos = ChaosConfig(events=(
            ChaosEvent(1000, "controller_down"),
            ChaosEvent(2500, "controller_up"),
        ))
        # A live controller, so the test can read its state afterwards.
        controller = HierarchicalController(
            ControlParams(epoch=400), num_domains=4, mode=mode
        )
        result = Simulator(SimulationConfig(
            make_homogeneous_workload("mcf", 64),
            controller=controller,
            epoch=400,
            seed=3,
            chaos=chaos,
            model_control_traffic=True,
            check_invariants=True,
        )).run(4000)
        return controller, result

    def test_coordinator_failstop_degrades_and_recovers(self):
        controller, result = self.run_chaos()
        assert controller.failovers == 1
        assert controller.downtime_epochs > 0
        assert not controller.down  # restored before the end
        # Shards never stop: every domain ran every epoch.
        assert (controller.domain_epochs == controller.epochs_run).all()
        assert result.chaos is not None
        applied = [e for e in result.chaos.events if e.applied_cycle >= 0]
        assert len(applied) == 2

    def test_intra_domain_traffic_survives_coordinator_loss(self):
        from repro.chaos.schedule import ChaosConfig, ChaosEvent
        from repro.traffic.workloads import make_homogeneous_workload as mk
        from repro.sim.simulator import Simulator

        # Coordinator down for the whole run: domain hubs keep
        # collecting (2n intra-domain flits/epoch) while the global
        # exchange is suspended.
        chaos = ChaosConfig(events=(ChaosEvent(0, "controller_down"),))
        config = SimulationConfig(
            mk("mcf", 64), seed=3, epoch=400, chaos=chaos,
            model_control_traffic=True,
            controller=HierarchicalController(
                ControlParams(epoch=400), num_domains=4
            ),
        )
        sim = Simulator(config)
        sim.run(4000)
        assert sim.controller.downtime_epochs == sim.controller.epochs_run > 0
        stats = sim.network.stats
        assert stats.control_flits_sent > 0
        assert (sim.domain_control_flits > 0).all() if isinstance(
            sim.domain_control_flits, np.ndarray
        ) else all(x > 0 for x in sim.domain_control_flits)


@pytest.mark.slow
class TestControlDropAccounting:
    """Satellite: hub-queue overflow is a counted drop, and the
    conservation invariant (attempted == sent + dropped) holds under
    the per-cycle checker."""

    def run_one(self, controller, nodes=64, **kw):
        return run_job(JobSpec.for_workload(
            make_homogeneous_workload("mcf", nodes),
            3000,
            controller=controller,
            epoch=300,
            seed=5,
            config=dict(
                model_control_traffic=True, check_invariants=True,
                profile=True, **kw,
            ),
        ))

    def test_central_hub_overflow_is_counted(self):
        # 63 reports per epoch into a 4-deep hub queue must drop.
        res = self.run_one(("central",), queue_capacity=4)
        assert res.perf.control_flits_dropped > 0
        assert res.perf.control_domains == 0

    def test_domains_shed_the_hot_spot(self):
        central = self.run_one(("central",), queue_capacity=4)
        hier = self.run_one(("hierarchical", 16), queue_capacity=4)
        assert hier.perf.control_flits_dropped < \
            central.perf.control_flits_dropped

    def test_no_overflow_means_no_drops(self):
        # A hub queue deep enough for the whole 63-report burst never
        # overflows, so the drop counter stays at exactly zero.
        res = self.run_one(("central",), queue_capacity=128)
        assert res.perf.control_flits_dropped == 0
        assert res.perf.control_flits_sent > 0
