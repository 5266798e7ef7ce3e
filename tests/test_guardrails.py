"""Tests for the simulation guardrails: invariant checking, the progress
watchdog, and fault injection."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import (
    FaultConfig,
    FaultModel,
    InvariantChecker,
    InvariantViolation,
    LivelockError,
    Mesh2D,
    ProgressWatchdog,
    SimulationConfig,
    SimulationTimeout,
    Simulator,
    make_category_workload,
)
from repro.native import native_available
from repro.network import (
    CreditFlowControl,
    DeflectFlowControl,
    HybridFlowControl,
    RouterEngine,
)
from repro.network.base import EjectedFlits
from repro.network.flit import pack_meta
from repro.topology.mesh import EAST, NORTH, WEST


def _ejected(nodes):
    nodes = np.asarray(nodes, dtype=np.int64)
    zeros = np.zeros(nodes.size, dtype=np.int64)
    return EjectedFlits(nodes, zeros, zeros, zeros)


def _drive_random_traffic(net, rng, cycles, checker=None, load=0.4):
    """Inject random traffic; returns flits sent.  Runs the checker."""
    n = net.num_nodes
    sent = 0
    for c in range(cycles):
        srcs = np.flatnonzero(rng.random(n) < load)
        if srcs.size:
            dests = (srcs + 1 + rng.integers(0, n - 1, srcs.size)) % n
            sent += int(net.enqueue_requests(srcs, dests, 1, cycle=c).sum())
        ejected = net.step(c)
        if checker is not None:
            checker.after_step(c, ejected)
    return sent


# ---------------------------------------------------------------------------
# Invariant checker: every invariant must trip on a synthetic violation
# ---------------------------------------------------------------------------
class TestInvariantChecker:
    def test_clean_bless_run_passes(self):
        net = RouterEngine(Mesh2D(4), DeflectFlowControl())
        checker = InvariantChecker(net)
        _drive_random_traffic(net, np.random.default_rng(0), 200, checker)
        assert checker.checks_run == 200

    def test_clean_buffered_run_passes(self):
        net = RouterEngine(Mesh2D(4), CreditFlowControl())
        checker = InvariantChecker(net)
        _drive_random_traffic(net, np.random.default_rng(0), 200, checker)
        assert checker.checks_run == 200

    def test_conservation_violation_dropped_flit(self):
        net = RouterEngine(Mesh2D(4), DeflectFlowControl())
        checker = InvariantChecker(net)
        net.stats.injected_flits += 1  # claim an injection that never happened
        with pytest.raises(InvariantViolation) as exc:
            checker.after_step(7, _ejected([]))
        assert exc.value.invariant == "conservation"
        assert exc.value.cycle == 7
        assert exc.value.snapshot["injected_flits"] == 1

    def test_conservation_violation_duplicated_flit(self):
        net = RouterEngine(Mesh2D(4), DeflectFlowControl())
        checker = InvariantChecker(net)
        net.stats.ejected_flits += 2  # ejected flits nobody injected
        with pytest.raises(InvariantViolation, match="conservation"):
            checker.after_step(3, _ejected([]))

    def test_eject_width_violation(self):
        net = RouterEngine(Mesh2D(4), DeflectFlowControl(1))
        checker = InvariantChecker(net)
        with pytest.raises(InvariantViolation) as exc:
            checker.after_step(11, _ejected([5, 5]))
        assert exc.value.invariant == "eject_width"
        assert 5 in exc.value.nodes

    def test_ghost_link_violation(self):
        net = RouterEngine(Mesh2D(4), DeflectFlowControl())
        checker = InvariantChecker(net)
        # Node 0 sits in the mesh corner: it has no NORTH link, so a flit
        # "arriving" there occupies a link that does not exist.
        assert not net.topology.link_exists[0, NORTH]
        net._ring_meta[0, 0 * 4 + NORTH] = pack_meta(1, 2, 0)
        net._ring_birth[0, 0 * 4 + NORTH] = 1
        net.stats.injected_flits += 1  # keep conservation satisfied
        with pytest.raises(InvariantViolation) as exc:
            checker.after_step(4, _ejected([]))
        assert exc.value.invariant == "ghost_link"
        assert 0 in exc.value.nodes

    def test_future_birth_violation(self):
        net = RouterEngine(Mesh2D(4), DeflectFlowControl())
        checker = InvariantChecker(net)
        net._ring_meta[0, 0 * 4 + EAST] = pack_meta(1, 2, 0)
        net._ring_birth[0, 0 * 4 + EAST] = 100  # born in the future
        net.stats.injected_flits += 1
        with pytest.raises(InvariantViolation, match="future_birth"):
            checker.after_step(4, _ejected([]))

    def test_age_order_violation(self):
        net = RouterEngine(Mesh2D(4), DeflectFlowControl())
        checker = InvariantChecker(net)
        # Two in-flight flits with identical (birth, src): the total
        # order Oldest-First arbitration relies on is broken.
        meta = pack_meta(3, 2, 0)
        net._ring_meta[0, 0 * 4 + EAST] = meta
        net._ring_birth[0, 0 * 4 + EAST] = 1
        net._ring_meta[0, 1 * 4 + WEST] = meta
        net._ring_birth[0, 1 * 4 + WEST] = 1
        net.stats.injected_flits += 2
        with pytest.raises(InvariantViolation, match="age_order"):
            checker.after_step(4, _ejected([]))

    def test_queue_bound_violation(self):
        net = RouterEngine(Mesh2D(4), DeflectFlowControl(), queue_capacity=8)
        checker = InvariantChecker(net)
        net.request_queue.count[2] = 9  # beyond capacity
        with pytest.raises(InvariantViolation) as exc:
            checker.after_step(0, _ejected([]))
        assert exc.value.invariant == "queue_bounds"
        assert 2 in exc.value.nodes

    def test_buffered_credit_violation(self):
        net = RouterEngine(Mesh2D(4), CreditFlowControl())
        checker = InvariantChecker(net)
        net.reserved[1, EAST] = -1  # negative credit reservation
        with pytest.raises(InvariantViolation, match="queue_bounds"):
            checker.after_step(0, _ejected([]))

    def test_buffered_overfull_buffer_violation(self):
        net = RouterEngine(Mesh2D(4), CreditFlowControl(4))
        checker = InvariantChecker(net)
        net.buffers.count[3, 0] = 5
        with pytest.raises(InvariantViolation, match="queue_bounds"):
            checker.after_step(0, _ejected([]))

    @pytest.mark.parametrize("bank, field, value", [
        ("buffers", "head", 4), ("buffers", "head", -1),
        ("side_buffers", "count", 5), ("side_buffers", "count", -1),
        ("side_buffers", "head", 4),
    ])
    def test_every_fifo_bank_is_bounded(self, bank, field, value):
        """Credit input FIFOs and hybrid side buffers, both 4 deep."""
        flow = (CreditFlowControl(4) if bank == "buffers"
                else HybridFlowControl(side_buffer_capacity=4))
        net = RouterEngine(Mesh2D(4), flow)
        checker = InvariantChecker(net)
        checker.after_step(0, _ejected([]))  # clean before the corruption
        getattr(getattr(net, bank), field)[3, 0] = value
        with pytest.raises(InvariantViolation, match="queue_bounds") as exc:
            checker.after_step(1, _ejected([]))
        assert list(exc.value.nodes) == [3]

    def test_dest_valid_violation_under_router_faults(self):
        topology = Mesh2D(4)
        fm = FaultModel(topology, FaultConfig(router_fault_rate=0.1, seed=5))
        dead = int(np.flatnonzero(~fm.alive_routers)[0])
        net = RouterEngine(topology, DeflectFlowControl(), fault_model=fm)
        checker = InvariantChecker(net)
        # Address a flit to the fail-stopped router, bypassing re-striping,
        # and park it on a healthy link of some live node.
        live = int(np.flatnonzero(fm.alive_routers)[0])
        port = int(np.flatnonzero(fm.link_up[live])[0])
        net._ring_meta[0, live * 4 + port] = pack_meta(dead, live, 0)
        net._ring_birth[0, live * 4 + port] = 1
        net.stats.injected_flits += 1
        with pytest.raises(InvariantViolation, match="dest_valid"):
            checker.after_step(4, _ejected([]))


# ---------------------------------------------------------------------------
# Progress watchdog
# ---------------------------------------------------------------------------
def _stuck_network(birth_cycle=0):
    """A minimal network stand-in that never ejects its one flit."""
    meta = np.array([pack_meta(3, 2, 0)], dtype=np.int64)
    birth = np.array([birth_cycle], dtype=np.int64)
    queue = SimpleNamespace(count=np.zeros(4, dtype=np.int64))
    return SimpleNamespace(
        stats=SimpleNamespace(ejected_flits=0, injected_flits=1),
        in_flight_flits=lambda: 1,
        in_flight_view=lambda: (meta, birth),
        request_queue=queue,
        response_queue=queue,
    )

class TestWatchdog:
    def test_trips_on_artificial_livelock(self):
        watchdog = ProgressWatchdog(window=10)
        net = _stuck_network()
        for cycle in range(10):
            watchdog.after_step(cycle, net)
        with pytest.raises(LivelockError) as exc:
            watchdog.after_step(10, net)
        assert exc.value.cycle == 10
        assert exc.value.snapshot["in_flight"] == 1
        assert exc.value.snapshot["cycles_since_ejection"] == 10
        assert exc.value.snapshot["oldest_flit_age"] == 10

    def test_trips_on_age_bound(self):
        watchdog = ProgressWatchdog(window=0, max_age=5)
        net = _stuck_network(birth_cycle=0)
        watchdog.after_step(5, net)  # age == bound: still fine
        with pytest.raises(LivelockError, match="age bound"):
            watchdog.after_step(6, net)

    def test_progress_resets_the_window(self):
        watchdog = ProgressWatchdog(window=5)
        net = _stuck_network()
        for cycle in range(5):
            watchdog.after_step(cycle, net)
        net.stats.ejected_flits = 1  # progress arrives just in time
        for cycle in range(5, 10):
            watchdog.after_step(cycle, net)

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            ProgressWatchdog(window=-1)

    def test_buffered_network_deadlocks_on_xy_path_fault(self):
        """XY routing cannot route around a dead link: the watchdog must
        catch the stuck flit instead of burning the cycle budget."""
        topology = Mesh2D(4)
        fm = FaultModel.with_failed_links(topology, [(1, EAST)])
        net = RouterEngine(topology, CreditFlowControl(), fault_model=fm)
        watchdog = ProgressWatchdog(window=60)
        net.enqueue_requests(np.array([0]), np.array([3]), 1, cycle=0)
        with pytest.raises(LivelockError) as exc:
            for cycle in range(1000):
                net.step(cycle)
                watchdog.after_step(cycle, net)
        assert exc.value.snapshot["in_flight"] == 1
        assert exc.value.cycle < 200  # fails fast, not at the budget's end

    def test_bless_routes_around_the_same_fault(self):
        topology = Mesh2D(4)
        fm = FaultModel.with_failed_links(topology, [(1, EAST)])
        net = RouterEngine(topology, DeflectFlowControl(), fault_model=fm)
        checker = InvariantChecker(net)
        net.enqueue_requests(np.array([0]), np.array([3]), 1, cycle=0)
        # Arrival slots of the dead 1<->2 link must stay empty forever.
        dead_slots = [1 * 4 + EAST, 2 * 4 + WEST]
        for cycle in range(300):
            ejected = net.step(cycle)
            checker.after_step(cycle, ejected)
            assert (net._ring_birth[:, dead_slots] == -1).all()
            if net.stats.ejected_flits == 1:
                break
        assert net.stats.ejected_flits == 1
        assert net.in_flight_flits() == 0


# ---------------------------------------------------------------------------
# Fault model
# ---------------------------------------------------------------------------
class TestFaultModel:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(link_fault_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(transient_fault_rate=-0.1)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_validated_by_name(self, seed):
        """A bad --fault-seed is a named ValueError at config time, not a
        bit_generator traceback on the first draw."""
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            FaultConfig(transient_fault_rate=0.1, seed=seed)

    def test_permanent_faults_are_symmetric(self):
        topology = Mesh2D(6)
        fm = FaultModel(topology, FaultConfig(link_fault_rate=0.15, seed=9))
        neighbor = topology.neighbor
        for node in range(topology.num_nodes):
            for port in range(4):
                if topology.link_exists[node, port]:
                    reverse = fm.link_up[
                        neighbor[node, port], topology.opposite[port]
                    ]
                    assert fm.link_up[node, port] == reverse

    def test_connectivity_resampling_rejects_impossible_sets(self):
        # Removing 2 of the 4 links of a 2x2 mesh always disconnects it.
        with pytest.raises(ValueError, match="connected fault set"):
            FaultModel(Mesh2D(2), FaultConfig(link_fault_rate=0.5, seed=0))

    def test_sampled_fault_set_is_connected(self):
        topology = Mesh2D(8)
        fm = FaultModel(
            topology, FaultConfig(link_fault_rate=0.1, router_fault_rate=0.05, seed=3)
        )
        assert fm.num_failed_routers == round(0.05 * 64)
        # Reachability from the first live router was checked at build
        # time; spot-check that every live node retains a healthy link.
        live = np.flatnonzero(fm.alive_routers)
        assert fm.link_up[live].any(axis=1).all()

    def test_remap_targets_nearest_live_node(self):
        topology = Mesh2D(2)
        fm = FaultModel(topology, FaultConfig(router_fault_rate=0.75, seed=1))
        live = np.flatnonzero(fm.alive_routers)
        assert live.size == 1
        np.testing.assert_array_equal(fm.remap, np.full(4, live[0]))

    def test_remap_matches_per_router_first_minimum(self):
        """The one-shot argmin re-stripes each dead router exactly as a
        per-router scan does: nearest live node, lowest id on ties."""
        topology = Mesh2D(6)
        fm = FaultModel(topology, FaultConfig(router_fault_rate=0.15, seed=2))
        dead = np.flatnonzero(~fm.alive_routers)
        live = np.flatnonzero(fm.alive_routers)
        assert dead.size >= 2
        expected = np.arange(topology.num_nodes)
        for d in dead:
            expected[d] = live[np.argmin(topology.distance(d, live))]
        np.testing.assert_array_equal(fm.remap, expected)
        # at least one tie was broken, or the rule is not exercised
        assert any(
            (topology.distance(d, live) == topology.distance(d, live).min()).sum() > 1
            for d in dead
        )

    def test_remap_is_identity_without_router_faults(self):
        topology = Mesh2D(4)
        fm = FaultModel(topology, FaultConfig(link_fault_rate=0.1, seed=2))
        np.testing.assert_array_equal(fm.remap, np.arange(16))

    def test_transient_mask_deterministic_and_symmetric(self):
        topology = Mesh2D(4)
        fm = FaultModel(topology, FaultConfig(transient_fault_rate=0.3, seed=4))
        down_a = fm.transient_down(17)
        down_b = fm.transient_down(17)
        np.testing.assert_array_equal(down_a, down_b)
        assert down_a.any()  # 30%/link: some link is down at this cycle
        neighbor = topology.neighbor
        for node, port in zip(*np.nonzero(down_a)):
            assert down_a[neighbor[node, port], topology.opposite[port]]

    def test_explicit_links_validated(self):
        topology = Mesh2D(4)
        with pytest.raises(ValueError, match="no link"):
            FaultModel.with_failed_links(topology, [(0, NORTH)])

    def test_bless_delivers_everything_under_permanent_faults(self):
        topology = Mesh2D(4)
        fm = FaultModel(topology, FaultConfig(link_fault_rate=0.1, seed=2))
        net = RouterEngine(topology, DeflectFlowControl(), fault_model=fm)
        checker = InvariantChecker(net)
        rng = np.random.default_rng(0)
        sent = _drive_random_traffic(net, rng, 150, checker, load=0.5)
        for cycle in range(150, 2500):
            checker.after_step(cycle, net.step(cycle))
            if net.stats.ejected_flits == sent:
                break
        assert net.stats.ejected_flits == sent
        assert net.in_flight_flits() == 0

    def test_bless_lossless_under_transient_faults(self):
        topology = Mesh2D(4)
        fm = FaultModel(topology, FaultConfig(transient_fault_rate=0.05, seed=6))
        net = RouterEngine(topology, DeflectFlowControl(), fault_model=fm)
        checker = InvariantChecker(net)
        rng = np.random.default_rng(1)
        sent = _drive_random_traffic(net, rng, 150, checker, load=0.6)
        for cycle in range(150, 3000):
            checker.after_step(cycle, net.step(cycle))
            if net.stats.ejected_flits == sent:
                break
        assert net.stats.ejected_flits == sent


# ---------------------------------------------------------------------------
# Simulator integration
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestSimulatorGuardrails:
    def _config(self, **kw):
        rng = np.random.default_rng(7)
        return SimulationConfig(
            make_category_workload("H", 16, rng), epoch=500, **kw
        )

    def test_checked_run_is_clean(self):
        for network in ("bless", "buffered"):
            config = self._config(
                network=network,
                check_invariants=True,
                watchdog_window=2000,
                max_flit_age=5000,
            )
            result = Simulator(config).run(2000)
            assert result.guardrails.invariant_checks == 2000
            assert result.flit_conservation_ok

    def test_faulted_run_degrades_gracefully(self):
        faults = FaultConfig(
            link_fault_rate=0.05, router_fault_rate=0.1, seed=11
        )
        for network in ("bless", "buffered"):
            config = self._config(
                network=network, check_invariants=True, faults=faults
            )
            result = Simulator(config).run(2000)
            assert result.flit_conservation_ok
            assert result.guardrails.failed_routers == 2
            assert result.guardrails.remapped_nodes == 2
            assert result.system_throughput > 0

    def test_run_validates_cycles(self):
        simulator = Simulator(self._config())
        with pytest.raises(ValueError, match="at least one cycle"):
            simulator.run(0)
        with pytest.raises(ValueError, match="cycles must be an integer"):
            simulator.run(1.5)
        with pytest.raises(ValueError, match="cycles must be an integer"):
            simulator.run(True)

    def test_run_validates_epoch(self):
        simulator = Simulator(self._config())
        simulator.config.epoch = 0  # mutated after construction
        with pytest.raises(ValueError, match="epoch must be"):
            simulator.run(100)

    def test_config_validates_guardrail_fields(self):
        with pytest.raises(ValueError, match="watchdog_window"):
            self._config(watchdog_window=-1)
        with pytest.raises(ValueError, match="FaultConfig"):
            self._config(faults=0.05)

    def test_deadline_timeout(self):
        simulator = Simulator(self._config())
        with pytest.raises(SimulationTimeout):
            simulator.run(1_000_000, deadline=0.0)

    @pytest.mark.parametrize("backend", [
        "numpy",
        pytest.param("native", marks=pytest.mark.skipif(
            not native_available(), reason="no C compiler"
        )),
    ])
    def test_result_after_a_watchdog_abort_conserves_flits(self, backend):
        """The watchdog is a post-hook of the network phase: the aborted
        cycle's cores, memory and network phases ran, the cycle is not
        counted, and every flit is ejected or in flight."""
        simulator = Simulator(self._config(backend=backend, max_flit_age=25))
        with pytest.raises(LivelockError, match="age bound") as abort:
            simulator.run(5000)
        result = simulator.result()
        assert result.cycles == simulator.cycle == abort.value.cycle > 0
        assert simulator.network.stats.cycles == result.cycles + 1
        assert result.injected_flits > result.ejected_flits > 0
        assert result.flit_conservation_ok
        assert abort.value.snapshot["ejected_flits"] == result.ejected_flits
