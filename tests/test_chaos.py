"""Tests for repro.chaos: campaigns, determinism, reports, failover.

The campaign tests run with ``check_invariants=True`` on purpose: the
whole point of the two-phase quiesce/hard-down protocol is that the
losslessness invariant holds *through* every topology transition, so
every run here doubles as an invariant-checker stress test.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.chaos import (
    ChaosConfig,
    ChaosEvent,
    ChaosReport,
    ChaosSchedule,
)
from repro.config import SimulationConfig
from repro.control.registry import CONTROLLER_NAMES, build_controller
from repro.guardrails.faults import FaultConfig, FaultModel
from repro.harness import JobSpec, run_job, run_jobs
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator
from repro.topology.mesh import Mesh2D
from repro.traffic.workloads import (
    make_category_workload,
    make_homogeneous_workload,
)
from tests.test_golden_results import result_hash

# Full-simulation module: runs real multi-epoch simulations end to end.
# Deselect with -m 'not slow' for a fast inner loop; CI runs everything.
pytestmark = pytest.mark.slow

DEMO = pathlib.Path(__file__).resolve().parents[1] / "examples" / "chaos_demo.json"

#: The reference campaign: one link fails and heals, then one router
#: fail-stops and comes back, all mid-run.
CAMPAIGN = ChaosConfig(
    events=(
        ChaosEvent(500, "link_down", node=5, port=1),
        ChaosEvent(1500, "link_up", node=5, port=1),
        ChaosEvent(2000, "router_down", node=10),
        ChaosEvent(3500, "router_up", node=10),
    ),
    seed=3,
)


def run_campaign(network, config=CAMPAIGN, cycles=4500, nodes=16, **kw):
    wl = make_homogeneous_workload("mcf", nodes)
    return run_job(JobSpec.for_workload(
        wl, cycles, seed=1, epoch=500, chaos=config, network=network,
        config=dict(check_invariants=True, **kw),
    ))


@pytest.fixture(scope="module")
def bless_campaign():
    return run_campaign("bless")


class TestCampaigns:
    def test_bless_link_campaign_lossless_with_finite_recovery(self):
        """The ISSUE's acceptance scenario: BLESS survives a mid-run
        link failure + repair with zero flit loss and measured,
        finite recovery after both transitions."""
        config = ChaosConfig(
            events=(
                ChaosEvent(400, "link_down", node=5, port=1),
                ChaosEvent(1500, "link_up", node=5, port=1),
            ),
            seed=3,
        )
        res = run_campaign("bless", config=config, cycles=3000)
        assert res.flit_conservation_ok
        assert res.ejected_flits > 0
        report = res.chaos
        assert isinstance(report, ChaosReport)
        assert len(report.events) == 2
        for rec in report.events:
            assert not rec.skipped
            assert rec.applied_cycle >= rec.cycle
            assert rec.recovery_cycles >= 0  # finite, measured recovery
        assert report.degraded_cycles > 0
        assert report.degraded_flits > 0
        assert 0.0 < report.availability < 1.0

    def test_bless_full_campaign_applies_every_event(self, bless_campaign):
        res = bless_campaign
        assert res.flit_conservation_ok
        report = res.chaos
        assert report.applied_events == len(CAMPAIGN.events)
        assert report.recovered_events >= 1
        assert report.max_recovery_cycles() > 0
        assert report.total_cycles == res.cycles
        # The router fail-stop took effect only after its drain, so the
        # applied cycle trails the scheduled one.
        down = next(e for e in report.events if e.kind == "router_down")
        assert down.applied_cycle > down.cycle

    @pytest.mark.parametrize("network", ["buffered", "hybrid"])
    def test_campaign_lossless_on_every_network(self, network):
        res = run_campaign(network)
        assert res.flit_conservation_ok
        assert res.chaos.applied_events == len(CAMPAIGN.events)

    def test_mtbf_campaign_is_lossless(self):
        """Random (renewal-process) faults obey the same drain protocol
        as scripted ones; connectivity-guarded skips are acceptable,
        flit loss is not."""
        config = ChaosConfig(
            link_mtbf=600.0, link_mttr=200.0, seed=5, max_random_events=6
        )
        res = run_campaign("bless", config=config, cycles=2500)
        assert res.flit_conservation_ok
        assert res.chaos.total_cycles == 2500
        assert len(res.chaos.events) == 12  # 6 down/up pairs materialized

    def test_connectivity_guard_skips_disconnecting_event(self):
        """On a 2x2 mesh, failing a second link of node 0 would isolate
        it; the engine must refuse that event, not partition the
        network."""
        config = ChaosConfig(
            events=(
                ChaosEvent(300, "link_down", node=0, port=1),   # 0-1
                ChaosEvent(1200, "link_down", node=0, port=2),  # 0-2
            ),
            seed=3,
        )
        res = run_campaign("bless", config=config, cycles=2000, nodes=4)
        assert res.flit_conservation_ok
        first, second = res.chaos.events
        assert first.applied_cycle >= 0 and not first.skipped
        assert second.skipped
        assert "disconnect" in second.reason


class TestControllerFailStop:
    CONFIG = dict(
        events=(
            ChaosEvent(800, "controller_down"),
            ChaosEvent(1600, "controller_up"),
        ),
        seed=3,
    )

    def run(self, mode):
        return run_campaign(
            "bless",
            config=ChaosConfig(degraded_mode=mode, **self.CONFIG),
            cycles=2400,
            controller=("central",),
        )

    #: recipes for the registry entries that need an argument
    RECIPES = {"static": ("static", 0.3)}
    #: (controller, degraded_mode) -> (down epochs, failovers, sha256 of
    #: the result incl. its ChaosReport), captured before fail-stop
    #: moved from a wrapper onto Controller; hierarchical degrades to
    #: its own domain-local mode whatever the campaign asks for.
    PINNED = {
        ("central", "freeze"): (
            2, 0,
            "b96cf886b928763e130fce2b2a35ea00864f8159f8557640fe7e912e0e41f6e3",
        ),
        ("central", "decay"): (
            2, 0,
            "91d5be15ce3254115e29a18ad43e463baf46085562a7a743486321b28022fc14",
        ),
        ("central", "failover"): (
            2, 1,
            "a8978d011bd967318efbedbb39c4f0cfcaae769da146bc24839af3a9bb6e8f7a",
        ),
        ("hierarchical", "freeze"): (
            2, 1,
            "fe417bfbed72d85200158c6ed4664eee6ba65685cdda5491855e3b66f9c1edf7",
        ),
    }

    @pytest.mark.parametrize("mode", ("freeze", "decay", "failover"))
    @pytest.mark.parametrize("name", CONTROLLER_NAMES)
    def test_every_scheme_fails_and_recovers_in_place(self, name, mode):
        """Registry-generated: a newly registered controller gets the
        fail-stop drill under every degraded policy on arrival."""
        controller = build_controller(
            self.RECIPES.get(name, (name,)), epoch=500
        )
        sim = Simulator(SimulationConfig(
            make_homogeneous_workload("mcf", 16), seed=1, epoch=500,
            chaos=ChaosConfig(degraded_mode=mode, **self.CONFIG),
            check_invariants=True, model_control_traffic=True,
            controller=controller,
        ))
        result = sim.run(2400)
        assert sim.controller is controller  # no wrapper swapped in
        assert not controller.down
        assert result.chaos.applied_events == 2
        assert result.chaos.controller_down_epochs > 0
        assert result.flit_conservation_ok
        if (name, mode) in self.PINNED:
            report = result.chaos
            assert (
                report.controller_down_epochs, report.controller_failovers,
                result_hash(result),
            ) == self.PINNED[name, mode]

    def test_failover_hands_off_to_standby(self):
        report = self.run("failover").chaos
        assert report.applied_events == 2
        assert report.controller_down_epochs >= 1
        assert report.controller_failovers >= 1

    def test_freeze_mode_has_no_failover(self):
        report = self.run("freeze").chaos
        assert report.applied_events == 2
        assert report.controller_down_epochs >= 1
        assert report.controller_failovers == 0

    #: Both transitions land mid-epoch, one cycle from an epoch
    #: boundary: up at 1501 leaves the standby the marks of cycle 1500
    #: alone, down at 2999 adds those of cycle 2999 alone, so its epoch
    #: at 3000 throttles a strict subset of the nodes.  A standby that
    #: sees one cycle more or less on either side gets another digest
    #: (recorded while observation was a per-cycle callback).
    MID_EPOCH = (
        ChaosEvent(730, "controller_down"), ChaosEvent(1501, "controller_up"),
        ChaosEvent(2999, "controller_down"), ChaosEvent(3140, "controller_up"),
    )
    MID_EPOCH_PINS = {
        "central":
            "2576e73877893caadaa8ba5a91983f8d2a5e5b532c105912bafd4600b8c8ac56",
        "distributed":
            "14464811e1e1a5abe0de57156719939e99ed1b067eafc3389ba236a9faeeab17",
    }

    @pytest.mark.parametrize("primary", sorted(MID_EPOCH_PINS))
    def test_standby_sees_exactly_the_intervals_the_primary_was_down(
        self, primary
    ):
        controller = build_controller((primary,), epoch=500)
        result = Simulator(SimulationConfig(
            make_category_workload("HM", 16, np.random.default_rng(7)),
            seed=1, epoch=500, eject_width=2, controller=controller,
            chaos=ChaosConfig(
                events=self.MID_EPOCH, seed=3, degraded_mode="failover"
            ),
        )).run(4000)
        rates = controller.standby._rates
        assert 0 < (rates == controller.standby.backoff_rate).sum() < 16
        assert result_hash(result) == self.MID_EPOCH_PINS[primary]


class TestDeterminism:
    def spec(self, chaos=CAMPAIGN):
        return JobSpec(
            app_names=("mcf",) * 16, cycles=2600, seed=1, epoch=500,
            chaos=chaos,
            config=(("check_invariants", True),),
        )

    def test_same_spec_twice_is_bit_identical(self):
        a, b = run_job(self.spec()), run_job(self.spec())
        assert a.to_dict() == b.to_dict()

    def test_parallel_matches_serial(self):
        specs = [self.spec(), self.spec(chaos=None)]
        serial = run_jobs(specs, jobs=1, cache=False)
        parallel = run_jobs(specs, jobs=2, cache=False)
        for a, b in zip(serial.results, parallel.results):
            assert a.to_dict() == b.to_dict()
        assert serial.results[0].chaos is not None
        assert serial.results[1].chaos is None

    def test_empty_chaos_config_is_no_chaos(self):
        """A config that can never emit an event must not perturb the
        run at all: results are bit-identical to ``chaos=None`` and no
        report is attached."""
        wl = make_homogeneous_workload("mcf", 16)
        plain = run_job(JobSpec.for_workload(wl, 1500, seed=1, epoch=500))
        empty = run_job(JobSpec.for_workload(
            wl, 1500, seed=1, epoch=500, chaos=ChaosConfig()
        ))
        assert not ChaosConfig().any_events
        assert empty.chaos is None
        assert empty.to_dict() == plain.to_dict()

    @pytest.mark.parametrize(
        "faults",
        [None, FaultConfig(link_fault_rate=0.1, router_fault_rate=0.1, seed=4)],
        ids=["fault-free", "sampled"],
    )
    def test_chaos_run_starts_from_the_static_fault_model(self, faults):
        """One fault model serves both kinds of run: before the first
        event fires, a campaign's model is attribute for attribute the
        one a static run samples from the same ``FaultConfig``."""
        wl = make_homogeneous_workload("mcf", 16)
        sim = Simulator(SimulationConfig(wl, faults=faults, chaos=CAMPAIGN))
        static = FaultModel(sim.topology, faults or FaultConfig())
        chaos_fm = sim.fault_model
        assert type(chaos_fm) is FaultModel
        assert vars(chaos_fm).keys() == vars(static).keys()
        for name, value in vars(static).items():
            if name != "_distance":  # lazy cache, compared through its property
                np.testing.assert_array_equal(
                    getattr(chaos_fm, name), value, err_msg=name
                )
        np.testing.assert_array_equal(
            chaos_fm.healthy_distance, static.healthy_distance
        )

    def test_schedule_is_deterministic_and_sorted(self):
        config = ChaosConfig(
            link_mtbf=400.0, link_mttr=150.0,
            router_mtbf=900.0, router_mttr=300.0,
            controller_mtbf=1200.0, controller_mttr=250.0,
            seed=7, max_random_events=8,
        )
        topo = Mesh2D(4)
        a, b = ChaosSchedule(config, topo), ChaosSchedule(config, topo)
        assert a.events == b.events
        assert len(a) == 2 * 8 * 3
        keys = [(e.cycle, e.kind, e.node, e.port) for e in a.events]
        assert keys == sorted(keys)
        assert a.due(10**9) == list(a.events)
        assert a.exhausted


class TestTransport:
    def test_jobspec_coerces_chaos_config(self):
        spec = JobSpec(app_names=("mcf",) * 16, cycles=1200, chaos=CAMPAIGN)
        assert spec.chaos == CAMPAIGN.to_json()
        assert ChaosConfig.from_json(spec.chaos) == CAMPAIGN
        base = JobSpec(app_names=("mcf",) * 16, cycles=1200)
        assert spec.content_hash() != base.content_hash()
        # with_config must carry the campaign through unchanged.
        assert spec.with_config(profile=True).chaos == spec.chaos

    def test_chaos_runs_are_cacheable(self, tmp_path):
        spec = JobSpec(
            app_names=("mcf",) * 16, cycles=1500, epoch=500, chaos=CAMPAIGN
        )
        cold = run_jobs([spec], jobs=1, cache=tmp_path)
        assert cold.executed == 1
        warm = run_jobs([spec], jobs=1, cache=tmp_path)
        assert warm.all_cached
        assert warm.results[0].to_dict() == cold.results[0].to_dict()
        assert isinstance(warm.results[0].chaos, ChaosReport)

    def test_report_roundtrips_through_result_dict(self, bless_campaign):
        res = bless_campaign
        report = res.chaos
        assert ChaosReport.from_dict(report.to_dict()) == report
        clone = SimulationResult.from_dict(
            json.loads(json.dumps(res.to_dict(), allow_nan=False))
        )
        assert clone.chaos == report
        assert clone.to_dict() == res.to_dict()

    def test_config_json_is_canonical(self):
        text = CAMPAIGN.to_json()
        assert ChaosConfig.from_json(text).to_json() == text
        assert json.dumps(json.loads(text), sort_keys=True,
                          separators=(",", ":")) == text

    def test_committed_demo_campaign_parses(self):
        config = ChaosConfig.from_json(DEMO.read_text())
        assert config.any_events
        assert len(config.events) == 8
        assert config.degraded_mode == "failover"
        kinds = {e.kind for e in config.events}
        assert {"link_down", "router_down", "controller_down",
                "noise_start"} <= kinds


class TestZooTopologies:
    """Chaos campaigns on graph-described topologies (PR 7).

    The quiesce/hard-down drain machinery must be port-count generic:
    a z-axis link on a 3D torus and an inter-chiplet bridge link fail
    and heal mid-run with zero flit loss, exactly like mesh links.
    """

    def _run(self, topology, nodes, events, **kw):
        config = ChaosConfig(events=tuple(events), seed=3)
        return run_campaign(
            "bless", config=config, cycles=3500, nodes=nodes,
            topology=topology, **kw,
        )

    def test_torus3d_z_link_campaign_lossless(self):
        from repro.topology.zoo import UP

        res = self._run("torus3d", 27, [
            ChaosEvent(400, "link_down", node=5, port=UP),
            ChaosEvent(1600, "link_up", node=5, port=UP),
        ])
        assert res.flit_conservation_ok
        assert res.ejected_flits > 0
        report = res.chaos
        assert report.applied_events == 2
        for rec in report.events:
            assert not rec.skipped
            assert rec.recovery_cycles >= 0

    def test_chiplet_bridge_campaign_lossless(self):
        from repro.topology.zoo import BRIDGE_E
        from repro.topology.mesh import EAST

        # Hub 18 bridges tile (0,0) to tile (1,0); node 5's EAST link
        # is an ordinary intra-tile mesh link.
        res = self._run("chiplet", 64, [
            ChaosEvent(400, "link_down", node=18, port=BRIDGE_E),
            ChaosEvent(1200, "link_down", node=5, port=EAST),
            ChaosEvent(2000, "link_up", node=18, port=BRIDGE_E),
            ChaosEvent(2400, "link_up", node=5, port=EAST),
        ])
        assert res.flit_conservation_ok
        assert res.ejected_flits > 0
        report = res.chaos
        assert report.applied_events == 4
        assert all(not rec.skipped for rec in report.events)

    def test_router_fail_stop_on_torus3d(self):
        res = self._run("torus3d", 27, [
            ChaosEvent(500, "router_down", node=13),
            ChaosEvent(2200, "router_up", node=13),
        ])
        assert res.flit_conservation_ok
        assert res.chaos.applied_events == 2
