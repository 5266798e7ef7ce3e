"""Unit tests for the congestion-control mechanisms (§5, §6.6)."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.control import (
    CentralController,
    ControlParams,
    DistributedController,
    EpochView,
    HierarchicalController,
    NoController,
    StaticThrottleController,
    mechanism_hardware_cost,
)
from repro.network import DeflectFlowControl, RouterEngine
from repro.network.flit import CBIT_MASK, FLIT_REQUEST, pack_meta
from repro.sim.simulator import Simulator
from repro.traffic.workloads import make_homogeneous_workload
from repro import Mesh2D


def view(ipf, sigma, active=None, cycle=0, util=0.5):
    ipf = np.asarray(ipf, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if active is None:
        active = np.ones(ipf.shape, dtype=bool)
    return EpochView(cycle=cycle, ipf=ipf, starvation_rate=sigma,
                     active=active, utilization=util)


class TestCentralFormulas:
    def test_starvation_threshold_eq1(self):
        """Eq (1): min(beta + alpha/IPF, gamma)."""
        ctrl = CentralController(ControlParams())
        ipf = np.array([0.5, 1.0, 4.0, 1e6])
        th = ctrl.starvation_threshold(ipf)
        np.testing.assert_allclose(th, [0.7, 0.4, 0.1, 4e-7], atol=1e-9)

    def test_throttle_rate_eq2(self):
        """Eq (2): min(beta + alpha/IPF, gamma)."""
        ctrl = CentralController(ControlParams())
        ipf = np.array([1.0, 2.0, 9.0, 1e6])
        rate = ctrl.throttle_rate(ipf)
        np.testing.assert_allclose(rate, [0.75, 0.65, 0.3, 0.2], atol=1e-6)

    def test_paper_default_parameters(self):
        p = ControlParams()
        assert (p.alpha_starve, p.beta_starve, p.gamma_starve) == (0.40, 0.0, 0.70)
        assert (p.alpha_throt, p.beta_throt, p.gamma_throt) == (0.90, 0.20, 0.75)
        assert p.epoch == 100_000

    def test_scaled_override(self):
        p = ControlParams().scaled(alpha_throt=0.5, epoch=1000)
        assert p.alpha_throt == 0.5
        assert p.epoch == 1000
        assert p.alpha_starve == 0.40  # untouched


class TestCentralDecisions:
    def test_no_congestion_no_throttling(self):
        ctrl = CentralController()
        rates = ctrl.on_epoch(view([1.0, 50.0], [0.1, 0.0]))
        assert not ctrl.last_congested
        assert (rates == 0).all()

    def test_congestion_detected_by_intensive_node(self):
        """IPF=1 node congested when sigma > 0.4 (threshold from Eq 1)."""
        ctrl = CentralController()
        ctrl.on_epoch(view([1.0, 50.0], [0.45, 0.0]))
        assert ctrl.last_congested

    def test_only_below_mean_ipf_throttled(self):
        """The Throttling Criterion: IPF_i < mean(IPF)."""
        ctrl = CentralController()
        rates = ctrl.on_epoch(view([1.0, 1.0, 500.0], [0.6, 0.0, 0.0]))
        assert rates[0] > 0 and rates[1] > 0
        assert rates[2] == 0.0

    def test_congested_node_is_not_necessarily_throttled(self):
        """§5: 'In most cases, the congested cores are not the ones
        throttled' — a CPU-bound node can be the starved one."""
        ctrl = CentralController()
        # node 2 (high IPF) starves, but nodes 0/1 are the heavy injectors
        rates = ctrl.on_epoch(view([1.0, 1.0, 400.0], [0.0, 0.0, 0.5]))
        assert ctrl.last_congested
        assert rates[2] == 0.0
        assert rates[0] > 0

    def test_rates_follow_eq2(self):
        ctrl = CentralController()
        rates = ctrl.on_epoch(view([1.0, 9.0, 500.0], [0.7, 0.0, 0.0]))
        assert rates[0] == pytest.approx(0.75)
        assert rates[1] == pytest.approx(0.30)

    def test_idle_nodes_ignored(self):
        ctrl = CentralController()
        active = np.array([True, True, False])
        rates = ctrl.on_epoch(view([1.0, 1.0, np.inf], [0.6, 0.1, 0.0], active))
        assert ctrl.last_congested
        assert rates[2] == 0.0

    def test_all_idle_returns_zeros(self):
        ctrl = CentralController()
        rates = ctrl.on_epoch(
            view([np.inf, np.inf], [0.0, 0.0], np.array([False, False]))
        )
        assert (rates == 0).all()

    def test_infinite_ipf_capped_for_mean(self):
        ctrl = CentralController(ControlParams(ipf_cap=1000.0))
        rates = ctrl.on_epoch(view([1.0, np.inf], [0.7, 0.0]))
        assert np.isfinite(rates).all()
        assert rates[0] > 0

    def test_stable_under_homogeneous_ipf(self):
        """With identical IPFs roughly half the nodes sit below the mean
        only through measurement noise; the decision must not crash or
        throttle everyone."""
        ctrl = CentralController()
        rates = ctrl.on_epoch(view([2.0] * 8, [0.5] * 8))
        assert ctrl.last_congested
        assert (rates <= ControlParams().gamma_throt).all()


class TestStaticController:
    def test_uniform_rate(self):
        ctrl = StaticThrottleController(0.5)
        rates = ctrl.on_epoch(view([1.0, 2.0], [0, 0]))
        np.testing.assert_allclose(rates, [0.5, 0.5])

    def test_targeted_nodes(self):
        ctrl = StaticThrottleController(0.9, nodes=np.array([1]))
        rates = ctrl.on_epoch(view([1.0, 2.0, 3.0], [0, 0, 0]))
        np.testing.assert_allclose(rates, [0.0, 0.9, 0.0])

    def test_rejects_invalid_rate(self):
        with pytest.raises(ValueError):
            StaticThrottleController(1.0)
        with pytest.raises(ValueError):
            StaticThrottleController(-0.1)

    def test_no_controller_is_all_zeros(self):
        rates = NoController().on_epoch(view([1.0], [0.9]))
        assert (rates == 0).all()


class TestDistributedController:
    def _make(self, **kw):
        net = RouterEngine(Mesh2D(4), DeflectFlowControl())
        ctrl = DistributedController(**kw)
        ctrl.attach(net, config=None)
        return ctrl, net

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DistributedController(backoff_rate=0.0)
        with pytest.raises(ValueError):
            DistributedController(decay=1.0)

    def test_starved_nodes_start_marking(self):
        ctrl, net = self._make(starvation_threshold=0.3)
        sigma = np.zeros(16)
        sigma[5] = 0.6
        ctrl.on_epoch(view([1.0] * 16, sigma))
        assert net.congested_nodes[5]
        assert net.congested_nodes.sum() == 1

    def test_marked_receiver_backs_off(self):
        """run_epoch drains the network's cbit_seen into the scheme."""
        ctrl, net = self._make(backoff_rate=0.5)
        net.cbit_seen[3] = True
        rates = ctrl.run_epoch(view([1.0] * 16, np.zeros(16)))
        assert rates[3] == 0.5
        assert rates.sum() == 0.5
        assert not net.cbit_seen.any()  # drained, not just read

    def test_unmarked_flits_do_nothing(self):
        """A delivered flit without the congestion bit leaves no trace."""
        ctrl, net = self._make()
        meta = pack_meta([3], [0], FLIT_REQUEST)
        net.account_ejections(0, np.array([3]), meta, np.array([5]))
        assert not net.cbit_seen.any()
        net.account_ejections(0, np.array([3]), meta | CBIT_MASK, np.array([5]))
        assert net.cbit_seen.nonzero()[0].tolist() == [3]
        net.cbit_seen[:] = False
        rates = ctrl.run_epoch(view([1.0] * 16, np.zeros(16)))
        assert rates.sum() == 0.0

    def test_backoff_decays_without_new_marks(self):
        ctrl, net = self._make(backoff_rate=0.8, decay=0.5)
        net.cbit_seen[2] = True
        first = ctrl.run_epoch(view([1.0] * 16, np.zeros(16)))[2]
        second = ctrl.run_epoch(view([1.0] * 16, np.zeros(16)))[2]
        third = ctrl.run_epoch(view([1.0] * 16, np.zeros(16)))[2]
        assert first == 0.8
        assert second == pytest.approx(0.4)
        assert third == pytest.approx(0.2)


class TestControllerLifecycle:
    """attach() is the one point a controller meets the built system;
    both reuse cases below ran to completion on stale state before."""

    def config(self, controller, nodes=16):
        return SimulationConfig(
            make_homogeneous_workload("mcf", nodes), seed=3, epoch=400,
            controller=controller,
        )

    def test_hierarchical_reuse_across_topologies_is_refused(self):
        """A mesh-attached controller reused on a 64-node chiplet kept
        the mesh DomainMap (IPC/node 0.15714 vs 0.15620 fresh)."""
        config = self.config(
            HierarchicalController(ControlParams(epoch=400)), nodes=64
        )
        mesh = Simulator(config)
        assert mesh.domains is config.controller.domain_map
        with pytest.raises(ValueError, match="one controller per run"):
            Simulator(config.with_(topology="chiplet"))

    def test_distributed_marks_the_network_it_runs_on(self):
        """A DistributedController built on one simulator's network and
        configured into another marked the first network, not the one
        it ran on; now it has no network until its simulator attaches."""
        controller = DistributedController(starvation_threshold=0.05)
        assert controller.network is None
        config = self.config(controller)
        sim = Simulator(config)
        with pytest.raises(ValueError, match="one controller per run"):
            Simulator(config.with_(seed=4))
        sim.run(1200)
        assert sim.controller is controller
        assert controller.network is sim.network
        assert sim.network.congested_nodes.any()


class TestHardwareCost:
    def test_paper_total_149_bits(self):
        """§6.5: 'only 149 bits of storage, two counters, and one
        comparator are required' for W=128."""
        cost = mechanism_hardware_cost(starvation_window=128)
        assert cost.total_bits == 149
        assert cost.counters == 2
        assert cost.comparators == 1

    def test_negligible_vs_l1(self):
        cost = mechanism_hardware_cost()
        assert cost.fraction_of_l1() < 0.0002

    def test_scales_with_window(self):
        small = mechanism_hardware_cost(starvation_window=32)
        large = mechanism_hardware_cost(starvation_window=256)
        assert large.total_bits > small.total_bits

    def test_validation(self):
        with pytest.raises(ValueError):
            mechanism_hardware_cost(starvation_window=0)
