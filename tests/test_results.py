"""Tests for the SimulationResult aggregate properties."""

import hashlib

import numpy as np
import pytest

from repro.metrics.collectors import EpochSeries
from repro.power.model import PowerReport
from repro.sim import results as results_module
from repro.sim.results import (
    RESULT_SCHEMA_FIELD_HASH,
    RESULT_SCHEMA_VERSION,
    SimulationResult,
)


def make_result(ipc, active):
    ipc = np.asarray(ipc, dtype=float)
    active = np.asarray(active, dtype=bool)
    n = ipc.size
    return SimulationResult(
        cycles=1000,
        num_nodes=n,
        ipc=ipc,
        active=active,
        ipf=np.ones(n),
        starvation_rate=np.full(n, 0.25),
        port_starvation_rate=np.full(n, 0.10),
        avg_net_latency=15.0,
        max_net_latency=60,
        avg_injection_latency=3.0,
        avg_hops=4.0,
        deflection_rate=0.2,
        network_utilization=0.7,
        injected_flits=1234,
        ejected_flits=1200,
        power=PowerReport(500.0, 500.0, 1000),
        epochs=EpochSeries(),
    )


class TestAggregates:
    def test_system_throughput_sums_all(self):
        res = make_result([1.0, 2.0, 0.0, 0.0], [True, True, False, False])
        assert res.system_throughput == 3.0

    def test_throughput_per_node_uses_active_only(self):
        res = make_result([1.0, 2.0, 0.0, 0.0], [True, True, False, False])
        assert res.throughput_per_node == pytest.approx(1.5)

    def test_all_idle_throughput_zero(self):
        res = make_result([0.0, 0.0], [False, False])
        assert res.throughput_per_node == 0.0
        assert res.mean_starvation == 0.0
        assert res.mean_port_starvation == 0.0

    def test_mean_starvations(self):
        res = make_result([1.0, 1.0], [True, True])
        assert res.mean_starvation == pytest.approx(0.25)
        assert res.mean_port_starvation == pytest.approx(0.10)

    def test_summary_contains_metrics(self):
        res = make_result([1.0, 1.0], [True, True])
        text = res.summary()
        for token in ("IPC/node", "util", "latency", "starvation", "power"):
            assert token in text


class TestSerialization:
    def test_percentile_without_histogram_is_zero(self):
        res = make_result([1.0], [True])
        assert res.latency_hist is None
        assert res.latency_percentile(99) == 0

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_result([1.0], [True]).latency_percentile(101)
        with pytest.raises(ValueError):
            make_result([1.0], [True]).latency_percentile(-1)

    def test_percentile_edge_cases_exact(self):
        # Histogram with empty low buckets: 3 flits at latency 7,
        # 5 at latency 12, 2 at latency 900.
        res = make_result([1.0], [True])
        hist = np.zeros(1024, dtype=np.int64)
        hist[7] = 3
        hist[12] = 5
        hist[900] = 2
        res.latency_hist = hist
        # p=0 is the minimum observed latency, NOT (empty) bucket 0.
        assert res.latency_percentile(0) == 7
        # p=100 is the maximum occupied bucket, never past it.
        assert res.latency_percentile(100) == 900
        # nearest-rank interior points: ranks 1-3 -> 7, 4-8 -> 12.
        assert res.latency_percentile(30) == 7  # rank 3
        assert res.latency_percentile(50) == 12  # rank 5
        assert res.latency_percentile(80) == 12  # rank 8
        assert res.latency_percentile(95) == 900  # rank 9.5 -> bucket 900

    def test_percentile_empty_histogram_is_zero(self):
        res = make_result([1.0], [True])
        res.latency_hist = np.zeros(1024, dtype=np.int64)
        for p in (0, 50, 100):
            assert res.latency_percentile(p) == 0

    def test_percentile_single_flit_all_percentiles_agree(self):
        res = make_result([1.0], [True])
        hist = np.zeros(1024, dtype=np.int64)
        hist[33] = 1
        res.latency_hist = hist
        for p in (0, 1, 50, 99, 100):
            assert res.latency_percentile(p) == 33

    def test_percentile_network_stats_duplicate_matches(self):
        from repro.network.base import NetworkStats

        stats = NetworkStats()
        stats.init_arrays(4)
        stats.record_latencies(np.array([7, 7, 7, 12, 12, 12, 12, 12, 900, 900]))
        res = make_result([1.0], [True])
        res.latency_hist = stats.latency_hist
        for p in (0, 25, 50, 75, 95, 100):
            assert stats.latency_percentile(p) == res.latency_percentile(p)

    def test_hand_built_roundtrip(self):
        res = make_result([1.0, 2.0], [True, False])
        clone = SimulationResult.from_dict(res.to_dict())
        assert clone.to_dict() == res.to_dict()
        assert clone.guardrails is None
        assert clone.latency_hist is None
        np.testing.assert_array_equal(clone.ipc, res.ipc)
        assert clone.epochs == res.epochs


def schema_field_hash(result: SimulationResult) -> str:
    """What RESULT_SCHEMA_FIELD_HASH pins, recomputed from a result."""
    text = f"v{results_module.RESULT_SCHEMA_VERSION}:" + ",".join(
        sorted(result.to_dict())
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def full_result():
    """A real run with every optional result section populated."""
    from repro.chaos import ChaosConfig, ChaosEvent
    from repro.harness import JobSpec, run_job

    chaos = ChaosConfig(
        events=(ChaosEvent(cycle=200, kind="link_down", node=5, port=1),)
    )
    spec = JobSpec(
        ("mcf",) * 16, cycles=600, epoch=200, chaos=chaos,
        config=(
            ("check_invariants", True), ("profile", True), ("trace", True),
        ),
    )
    result = run_job(spec)
    for section in ("guardrails", "latency_hist", "perf", "chaos"):
        assert getattr(result, section) is not None, section
    return result


class TestSchemaPin:
    """Runtime successor of the SCHEMA001 lint: the serialized key set
    of a real result is pinned per schema version."""

    def test_field_hash_pins_the_serialized_keys(self, full_result):
        assert schema_field_hash(full_result) == RESULT_SCHEMA_FIELD_HASH, (
            "SimulationResult.to_dict() keys changed: bump "
            "RESULT_SCHEMA_VERSION and set RESULT_SCHEMA_FIELD_HASH to "
            f"{schema_field_hash(full_result)!r}"
        )

    def test_full_result_roundtrips(self, full_result):
        clone = SimulationResult.from_dict(full_result.to_dict())
        assert clone.to_dict() == full_result.to_dict()
        assert clone.chaos == full_result.chaos
        assert clone.guardrails == full_result.guardrails

    def test_pin_fails_when_key_added_without_version_bump(
        self, full_result, monkeypatch
    ):
        plain = SimulationResult.to_dict
        monkeypatch.setattr(
            SimulationResult, "to_dict",
            lambda self: {**plain(self), "sneaky_field": 0},
        )
        assert schema_field_hash(full_result) != RESULT_SCHEMA_FIELD_HASH

    def test_pin_is_keyed_on_the_version(self, full_result, monkeypatch):
        monkeypatch.setattr(
            results_module, "RESULT_SCHEMA_VERSION", RESULT_SCHEMA_VERSION + 1
        )
        assert schema_field_hash(full_result) != RESULT_SCHEMA_FIELD_HASH
