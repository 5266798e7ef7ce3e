"""Unit tests for the experiment drivers and table formatting."""

import pytest

from repro.experiments import (
    alone_ipc,
    alone_ipc_specs,
    format_table,
    locality_sweep,
    paper_vs_measured,
    scaled_cycles,
    static_throttle_sweep,
    workload_batch_comparison,
)
from repro.harness import JobSpec, ResultCache, run_job
from repro.traffic.workloads import (
    Workload,
    make_checkerboard_workload,
    make_homogeneous_workload,
)

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
    def test_scaled_cycles_multiplies(self):
        assert scaled_cycles(2000, 2.5) == 5000

    def test_scaled_cycles_floor(self):
        assert scaled_cycles(2000, 0.01) == 1000


def shared_run(workload, cycles):
    return run_job(JobSpec.for_workload(workload, cycles, epoch=500, seed=1))


class TestRunners:
    def test_run_job_end_to_end(self):
        res = shared_run(make_homogeneous_workload("gromacs", 16), 1500)
        assert res.cycles == 1500
        assert res.system_throughput > 0

    def test_alone_ipc_matches_the_per_app_values(self):
        """Recorded from the per-application, process-cached alone runs
        these specs replaced: the same numbers, bit for bit."""
        mcf, lbm = (make_homogeneous_workload(a, 16) for a in ("mcf", "lbm"))
        assert alone_ipc([mcf], cycles=2000).run()[0][0] == 1.3099733900163684
        assert alone_ipc([lbm], cycles=1200).run()[0][0] == 2.0871473341047393

    def test_alone_ipc_specs_one_per_distinct_app(self):
        batch = [
            make_checkerboard_workload("mcf", "gromacs", 4),
            make_homogeneous_workload("mcf", 16),
            Workload(("gromacs", None, "lbm", None)),
        ]
        specs = alone_ipc_specs(batch, cycles=1200)
        assert sorted(specs) == [
            ("gromacs", 4), ("gromacs", 16), ("lbm", 4), ("mcf", 16),
        ]
        spec = specs["lbm", 4]
        assert spec.app_names == ("lbm", None, None, None)
        assert (spec.category, spec.seed, spec.controller) == (
            "ALONE", 11, ("none",)
        )

    def test_alone_ipc_cached(self, tmp_path):
        batch = [make_checkerboard_workload("povray", "mcf", 4),
                 make_homogeneous_workload("povray", 16)]
        records = []
        cold = alone_ipc(batch, cycles=1200).run(
            cache=tmp_path, progress=records.append)
        assert [r.cached for r in records] == [False, False]
        records.clear()
        warm = alone_ipc(batch, cycles=1200).run(
            cache=ResultCache(tmp_path), progress=records.append)
        assert [r.cached for r in records] == [True, True]
        for a, b in zip(cold, warm):
            assert a.tolist() == b.tolist()
        assert cold[1].tolist() == [cold[0][0]] * 16
        assert cold[0][0] == pytest.approx(3.0, rel=0.05)

    def test_alone_ipc_uncontended_beats_shared(self):
        wl = make_homogeneous_workload("mcf", 16)
        shared = shared_run(wl, 2000)
        (alone,) = alone_ipc([wl], cycles=2000).run()
        assert (alone > shared.ipc.mean()).all()


class TestSweeps:
    def test_static_sweep_rates_and_order(self):
        wl = make_homogeneous_workload("mcf", 16)
        results = static_throttle_sweep(
            wl, [0.0, 0.8], 1500, epoch=500, seed=1
        ).run()
        assert [r[0] for r in results] == [0.0, 0.8]
        assert results[1][1].injected_flits < results[0][1].injected_flits

    def test_locality_sweep_distance_effect(self):
        results = locality_sweep([1.0, 8.0], 16, 1500, epoch=500).run()
        near, far = results[0][1], results[1][1]
        assert near.avg_hops < far.avg_hops

    def test_batch_comparison_shape(self):
        rows = workload_batch_comparison(
            2, 16, 1200, epoch=400, seed=3, categories=["L", "H"]
        ).run()
        assert [r["category"] for r in rows] == ["L", "H"]
        for r in rows:
            assert "improvement" in r
            assert r["baseline"].cycles == r["mechanism"].cycles == 1200
            # the controlled run must never inject more than the baseline
            assert (r["mechanism"].injected_flits
                    <= r["baseline"].injected_flits * 1.05)
