"""Tests of the perf ledger itself (``pytest benchmarks/perf``).

Outside the tier-1 ``testpaths``: they start interpreters and run small
simulations, and they test the measuring instrument, not the simulator.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import subprocess
import sys

import pytest

PERF_DIR = pathlib.Path(__file__).resolve().parents[1]
ROOT = PERF_DIR.parents[1]
for _path in (str(ROOT / "src"), str(PERF_DIR)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench  # noqa: E402
import perf_tracing  # noqa: E402
import perf_workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
SMOKE = ["--seed", "3", "--seconds", "0.2", "--scale", "0.02"]


def run_round(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(PERF_DIR / "bench.py"), "--workload", name,
         "--trace", str(trace), *SMOKE],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# The contract: every named metric, for every workload, with its unit
# ----------------------------------------------------------------------
def test_workloads_match_benchmark_json():
    assert set(WORKLOAD_NAMES) == set(perf_workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == perf_workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_named_metric(name, trace):
    result = run_round(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_nonzero_without_a_simulator(tmp_path):
    """A directory with only the benchmark has nothing to measure."""
    (tmp_path / "benchmarks").mkdir()
    perf = tmp_path / "benchmarks" / "perf"
    perf.mkdir()
    for source in PERF_DIR.glob("*.py"):
        (perf / source.name).write_bytes(source.read_bytes())
    (perf / "pins.json").write_bytes((PERF_DIR / "pins.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/bench.py", "--workload",
         "native_mesh64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_guardrail_abort_in_a_sweep_is_a_failed_op(monkeypatch):
    workload = perf_workloads.make_workload("sweep_cold", seed=3, scale=0.02)
    workload.setup()
    build = workload.build_specs

    def sabotaged(tracer=None):
        specs = build(tracer)
        # A zero wall-clock budget raises SimulationTimeout, a
        # GuardrailError, at cycle 0 of this one job.
        specs[0] = dataclasses.replace(specs[0], deadline=0.0)
        return specs

    monkeypatch.setattr(workload, "build_specs", sabotaged)
    record = perf_workloads.run_pass(workload, "plain")
    assert record.attempted == 36
    assert len(record.failures) == 1
    assert record.extra["jobs_failed"] == 1
    assert len(record.failures) / record.attempted > 0


def test_missing_compiler_counts_native_ops_failed(monkeypatch, capsys):
    import repro.native
    import repro.native.accel
    import repro.native.build

    def no_compiler():
        raise repro.native.build.NativeBuildError("no C compiler found")

    for module in (repro.native, repro.native.accel, repro.native.build):
        monkeypatch.setattr(module, "load_library", no_compiler)
    code = bench.main(
        ["--workload", "native_mesh64", "--trace", "1", *SMOKE]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["bench.failure_share"]["value"] == 1.0


def test_digest_drift_between_passes_fails_the_op():
    workload = perf_workloads.make_workload("numpy_mesh256", seed=3, scale=0.02)
    first = perf_workloads.run_pass(workload, "plain")
    assert not first.failures
    workload.reference = ["not the digest"]
    second = perf_workloads.run_pass(workload, "plain")
    assert len(second.failures) == 1 and "digest" in second.failures[0]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_self_time_on_a_synthetic_tree(monkeypatch):
    """root[0,100] > a[10,30], b[40,80] > c[50,60]."""
    ticks = iter([0, 10, 30, 40, 50, 60, 80, 100])
    monkeypatch.setattr(
        perf_tracing.time, "perf_counter_ns", lambda: next(ticks)
    )
    tracer = perf_tracing.Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    assert tracer.total_s("root") == pytest.approx(100e-9)
    assert tracer.children_s("root") == pytest.approx(60e-9)
    assert tracer.self_s("root") == pytest.approx(40e-9)
    assert tracer.self_s("b") == pytest.approx(30e-9)
    assert tracer.self_s("c") == pytest.approx(10e-9)
    assert tracer.count("a") == 1 and tracer.spans_recorded == 4
    spans = {s["name"]: s for s in tracer.raw_spans()}
    assert spans["c"]["parent"] == "b" and spans["b"]["parent"] == "root"
    assert (spans["b"]["start_ns"], spans["b"]["end_ns"]) == (40, 80)


def test_nested_span_of_the_same_name_is_not_double_counted(monkeypatch):
    ticks = iter([0, 10, 20, 50])
    monkeypatch.setattr(
        perf_tracing.time, "perf_counter_ns", lambda: next(ticks)
    )
    tracer = perf_tracing.Tracer()
    with tracer.span("on_epoch"):
        with tracer.span("on_epoch"):
            pass
    assert tracer.total_s("on_epoch") == pytest.approx(50e-9)
    assert tracer.count("on_epoch") == 1


@pytest.mark.parametrize("name", ["numpy_chiplet_guarded", "native_mesh64"])
def test_phase_spans_plus_loop_self_equal_run(name):
    from repro.sim.simulator import Simulator

    original_run = Simulator.run
    workload = perf_workloads.make_workload(name, seed=3, scale=0.05)
    workload.setup()
    record = perf_workloads.run_pass(workload, "traced", raw_spans=True)
    assert not record.failures
    assert Simulator.run is original_run  # instrumentation was removed
    tracer = record.tracer
    run_s = tracer.total_s("sim.run")
    assert run_s > 0
    assert tracer.children_s("sim.run") + tracer.self_s("sim.run") == (
        pytest.approx(run_s, rel=1e-9)
    )
    phases = sum(
        entry[1] for (span, parent), entry in tracer.agg.items()
        if parent == "sim.run"
    ) / 1e9
    assert phases == pytest.approx(tracer.children_s("sim.run"))
    for phase in ("behavior", "cores", "memory", "network", "ejection"):
        assert tracer.count(f"phase.{phase}") == workload.cycles
    assert tracer.raw_spans()  # the first cycles are kept raw


def test_every_simulation_of_a_traced_sweep_is_counted_once():
    """36 short-lived simulators reuse addresses; counts are kept per
    simulation job, so the per-layer counts repeat exactly."""
    workload = perf_workloads.make_workload("sweep_cold", seed=3, scale=0.02)
    workload.setup()
    record = perf_workloads.run_pass(workload, "traced")
    assert not record.failures
    assert sorted(record.sims) == list(range(1, 37))
    assert sum(s["cycles"] for s in record.sims.values()) == 36 * workload.cycles


# ----------------------------------------------------------------------
# --selfcheck verdicts
# ----------------------------------------------------------------------
def _summary(wall: float, spread: float = 0.0, ipc: float = 0.5) -> dict:
    def stat(value, unit):
        half = value * spread / 2
        return {"median": value, "q1": value - half, "q3": value + half,
                "min": value, "max": value, "n": 7, "unit": unit}

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    end_to_end = {name: stat(1.0, unit) for name, unit in units.items()}
    end_to_end["wall_s"] = stat(wall, "s")
    return {"w": {
        "end_to_end": end_to_end,
        "exact": {"failure_share": [0.0], "sim_ipc_per_node": [ipc],
                  "sim_avg_net_latency": [20.0], "digest": ["d"]},
        "per_layer": {"sim.cycles": {"value": 1000, "unit": "count"}},
        "attempted": 10, "failed": 0,
    }}


def test_selfcheck_verdicts(capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    assert bench.compare_sets(SPEC, _summary(1.0), _summary(1.0 + bound / 2))
    # Worse by more than the bound with tight spreads: a disagreement.
    assert not bench.compare_sets(SPEC, _summary(1.0), _summary(1.0 + 2 * bound))
    # The same gap with a spread wider than the bound is unresolved.
    assert bench.compare_sets(
        SPEC, _summary(1.0, spread=3 * bound),
        _summary(1.0 + 2 * bound, spread=3 * bound),
    )
    assert "unresolved" in capsys.readouterr().out
    # Simulated statistics must be equal, not close.
    assert not bench.compare_sets(SPEC, _summary(1.0), _summary(1.0, ipc=0.5001))
