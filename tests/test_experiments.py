"""Unit tests for the experiment drivers and table formatting."""

import pytest

from repro.experiments import (
    alone_ipc,
    bench_scale,
    format_table,
    locality_sweep,
    paper_vs_measured,
    run_workload,
    scaled_cycles,
    static_throttle_sweep,
    workload_batch_comparison,
)
from repro.experiments.runner import _ALONE_CACHE
from repro.traffic.workloads import make_homogeneous_workload

# Full-simulation module: runs real multi-epoch simulations end to end.
# Deselect with -m 'not slow' for a fast inner loop; CI runs everything.
pytestmark = pytest.mark.slow


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), (33, 4.0)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)
        assert "2.500" in text

    def test_paper_vs_measured_flags_failures(self):
        text = paper_vs_measured(
            "T", [("q1", "x", "y", True), ("q2", "x", "y", False)]
        )
        assert "yes" in text
        assert "NO" in text
        assert "T" in text


class TestScaling:
    def test_bench_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "2.5")
        assert bench_scale() == 2.5
        assert scaled_cycles(2000) == 5000

    def test_scaled_cycles_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.01")
        assert scaled_cycles(2000) == 1000


class TestRunners:
    def test_run_workload_end_to_end(self):
        wl = make_homogeneous_workload("gromacs", 16)
        res = run_workload(wl, 1500, epoch=500, seed=1)
        assert res.cycles == 1500
        assert res.system_throughput > 0

    def test_alone_ipc_cached(self):
        _ALONE_CACHE.clear()
        a = alone_ipc("povray", 16, cycles=1200)
        assert len(_ALONE_CACHE) == 1
        b = alone_ipc("povray", 16, cycles=1200)
        assert a == b
        assert len(_ALONE_CACHE) == 1
        assert a == pytest.approx(3.0, rel=0.05)

    def test_alone_ipc_uncontended_beats_shared(self):
        wl = make_homogeneous_workload("mcf", 16)
        shared = run_workload(wl, 2000, epoch=500, seed=1)
        alone = alone_ipc("mcf", 16, cycles=2000)
        assert alone > shared.ipc.mean()


class TestSweeps:
    def test_static_sweep_rates_and_order(self):
        wl = make_homogeneous_workload("mcf", 16)
        results = static_throttle_sweep(wl, [0.0, 0.8], 1500, epoch=500, seed=1)
        assert [r[0] for r in results] == [0.0, 0.8]
        assert results[1][1].injected_flits < results[0][1].injected_flits

    def test_locality_sweep_distance_effect(self):
        results = locality_sweep([1.0, 8.0], 16, 1500, epoch=500)
        near, far = results[0][1], results[1][1]
        assert near.avg_hops < far.avg_hops

    def test_batch_comparison_shape(self):
        rows = workload_batch_comparison(
            2, 16, 1200, epoch=400, seed=3, categories=["L", "H"]
        )
        assert [r["category"] for r in rows] == ["L", "H"]
        for r in rows:
            assert "improvement" in r
            assert r["baseline"].cycles == r["mechanism"].cycles == 1200
            # the controlled run must never inject more than the baseline
            assert (r["mechanism"].injected_flits
                    <= r["baseline"].injected_flits * 1.05)
