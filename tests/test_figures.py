"""The figure registry and ``python -m repro figure``.

Fast: only the analytic reports run for real (Table 1's IPF processes,
Table 2, §6.5); where a test needs simulations it plants small entries
in place of the registry.  One slow test runs four simulated reports at
``--scale 0.01`` on both backends.
"""

import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

import repro.__main__ as cli
from repro.experiments import figures, sweeps
from repro.experiments.sweeps import Plan
from repro.guardrails.errors import LivelockError, SimulationTimeout
from repro.harness import JobSpec, executor
from repro.harness.jobs import predicted_cost
from repro.native import accel, native_available
from repro.traffic.workloads import make_homogeneous_workload

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
ANALYTIC = ("table1_process", "table2", "sec65_hw")


def committed_blocks():
    """``{section label: its first fenced block}`` of EXPERIMENTS.md."""
    lines = EXPERIMENTS.read_text(encoding="utf-8").split("\n")
    return {
        label: "\n".join(lines[start:end])
        for label, (start, end) in figures.fenced_blocks(lines).items()
    }


def by_name(name):
    return next(f for f in figures.FIGURES if f.name == name)


def figure_cli(capsys, *argv):
    rc = cli.main(["figure", "--no-progress", *argv])
    out, err = capsys.readouterr()
    return rc, out, err


def test_names_and_labels_are_unique():
    names = [f.name for f in figures.FIGURES]
    labels = [f.label for f in figures.FIGURES]
    assert len(set(names)) == len(names) == 34
    assert len(set(labels)) == len(labels)


def test_experiments_md_has_every_report_in_registry_order():
    """Every registered label heads a section with its report, in
    registry order, and every report block (one opening with a title
    bar) belongs to an entry."""
    reports = [label for label, block in committed_blocks().items()
               if block.startswith("=")]
    assert reports == [f.label for f in figures.FIGURES]


@pytest.mark.parametrize("name", ANALYTIC)
def test_analytic_report_matches_its_committed_block(name):
    fig = by_name(name)
    text, failed = fig.report(fig.plan(1.0).run())
    assert failed == []
    assert text.strip() == committed_blocks()[fig.label]


def test_a_planted_no_row_exits_1_and_is_named(monkeypatch, capsys):
    fig = by_name("sec65_hw")

    def planted(cost):
        title, claims, table = fig.render(cost)
        return title, [*claims, ("planted quantity", "1", "2", False)], table

    monkeypatch.setattr(figures, "FIGURES", [fig._replace(render=planted)])
    rc, out, err = figure_cli(capsys, "sec65_hw")
    assert rc == 1
    assert "planted quantity" in out and "NO" in out
    assert "FAILED sec65_hw: planted quantity (paper 1, measured 2)" in err


def test_unknown_name_is_one_error_line(capsys):
    rc, out, err = figure_cli(capsys, "table2", "fig99")
    assert (rc, out) == (2, "")
    assert err.startswith("error: unknown figure fig99")
    assert err.count("\n") == 1


def test_markdown_rewrites_only_the_report_blocks(tmp_path, capsys):
    original = EXPERIMENTS.read_text(encoding="utf-8")
    note = "A hand-written paragraph between two report sections.\n\n"
    kept = original.replace("## Fig 7 —", note + "## Fig 7 —", 1)
    path = tmp_path / "EXPERIMENTS.md"
    path.write_text(kept.replace("0.0142%", "9.9999%", 1), encoding="utf-8")
    rc, _, _ = figure_cli(capsys, "table2", "sec65_hw", "--markdown",
                          str(path))
    assert rc == 0
    assert path.read_text(encoding="utf-8") == kept


def test_markdown_without_the_section_fails_before_any_run(tmp_path,
                                                           capsys):
    path = tmp_path / "notes.md"
    path.write_text("# notes\n", encoding="utf-8")
    rc, out, err = figure_cli(capsys, "table2", "--markdown", str(path))
    assert (rc, out) == (2, "")
    assert err == "error: no fenced block under '## Table 2 — system " \
                  "parameters'\n"


def test_a_spec_two_reports_share_executes_once(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    specs = [JobSpec(("mcf",) * 4, 1000, seed=seed) for seed in (1, 2, 3)]

    def render(results):
        ran = not any(isinstance(r, str) for r in results)
        return "T", [("every run completed", "yes", str(ran), ran)], None

    monkeypatch.setattr(figures, "FIGURES", [
        figures.Figure("first", "First", lambda s: Plan(specs[:2], list),
                       render),
        figures.Figure("second", "Second",
                       lambda s: Plan(specs[1:] * 2, list), render),
    ])
    rc, _, err = figure_cli(capsys, "--jobs", "1")
    assert rc == 0
    assert "6 jobs, 3 distinct specs, 0 cache hits, 3 executed" in err
    picked = "3 native, 0 numpy" if native_available() else "0 native, 3"
    assert f"backend: specs {picked}" in err


def test_figure_makes_one_run_jobs_call(monkeypatch, capsys):
    """Figs 13-16 share one scaling sweep and §6.3's mesh half repeats
    four of its points: every report is planned first, and the specs
    go to one run_jobs call, each once, the longest predicted first."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    calls, ran = [], []
    power = SimpleNamespace(reduction_vs=lambda other: 0.1)
    stub = SimpleNamespace(throughput_per_node=1.0, avg_net_latency=20.0,
                           network_utilization=0.5, power=power)

    def run_jobs(specs, **kw):
        calls.append(list(specs))
        return executor.run_jobs(specs, **kw)

    def timed_run(spec, timeout_s):
        ran.append(spec)
        return stub, 0.0, None

    monkeypatch.setattr(sweeps, "run_jobs", run_jobs)
    monkeypatch.setattr(executor, "_timed_run", timed_run)
    _, _, err = figure_cli(capsys, "--jobs", "1", "fig13", "fig14",
                           "fig15", "fig16", "sec63_torus")
    (specs,) = calls
    assert len({spec.content_hash() for spec in specs}) == len(specs) == 19
    costs = [predicted_cost(spec) for spec in ran]
    assert len(costs) == 19 and costs == sorted(costs, reverse=True)
    assert "5 reports, 68 jobs, 19 distinct specs, 0 cache hits, " \
           "19 executed" in err


def test_a_watchdog_stop_is_a_deadlock_cell_not_a_throughput():
    """fault_tolerance names where a wedged buffered network stopped;
    its buffered claim holds only if every faulted run deadlocked."""
    fig = by_name("fault_tolerance")
    bless = [(rate, 20.0 - 10 * rate, 0.2, int(100 * rate), None)
             for rate in figures._FAULT_RATES]
    stopped = [(0.0, 32.0, 0.0, None, None)] + [
        (rate, None, None, None, f"deadlock @ {cycle}")
        for rate, cycle in zip(figures._FAULT_RATES[1:], (446, 891, 305))
    ]
    text, failed = fig.report((bless, stopped))
    assert failed == []
    assert "deadlock @ 446 / deadlock @ 891 / deadlock @ 305" in text
    assert text.count("deadlock @ 891") == 2  # claim row and table cell
    finished = stopped[:-1] + [(0.05, 1.07, 0.0, None, None)]
    _, failed = fig.report((bless, finished))
    assert [claim[0] for claim in failed] == [
        "buffered XY deadlocks at every fault rate ≥ 1%"
    ]


def test_fig13_signs_a_rise_once():
    """A measured change is formatted signed, so the buffered curve
    that rises from 0.908 to 1.032 IPC/node reads +14%, not --14%."""
    ipc = {
        "bless": (0.597, 0.539, 0.485, 0.421, 0.385),
        "bless-throttling": (0.630, 0.605, 0.562, 0.532, 0.453),
        "buffered": (0.908, 0.957, 1.002, 1.020, 1.032),
    }
    data = {
        name: [(size, SimpleNamespace(throughput_per_node=value))
               for size, value in zip(figures._SIZES, values)]
        for name, values in ipc.items()
    }
    text, failed = by_name("fig13").report(data)
    assert failed == []
    (row,) = [line for line in text.splitlines() if "scales flat" in line]
    assert row.split()[-2:] == ["+14%", "yes"]
    assert "-28% (vs -36% baseline)" in text
    assert re.search(r"[-+][-+]\d", text) is None


def test_a_watchdog_record_reads_as_a_deadlock_cell(monkeypatch):
    """The cell comes from the error string a worker records for a real
    LivelockError, so rewording that message fails here, not silently
    as "diverged" cells in fault_tolerance."""
    def wedged(spec):
        raise LivelockError(446, "no flit ejected for 150 cycles")

    monkeypatch.setattr(executor, "run_job", wedged)
    result, _, error = executor._timed_run(JobSpec.for_workload(
        make_homogeneous_workload("mcf", 16), 1000))
    assert result is None
    assert figures._stop(error) == "deadlock @ 446"
    timeout = SimulationTimeout(700, 301.0, 300.0)
    assert figures._stop(f"SimulationTimeout: {timeout}") == "diverged"


def test_the_registry_is_imported_on_the_figure_path_only():
    code = ("import sys, repro, repro.harness, repro.__main__; "
            "sys.exit('repro.experiments.figures' in sys.modules "
            "or 'repro.experiments.sweeps' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


@pytest.mark.slow
@pytest.mark.skipif(not native_available(), reason="no C compiler")
def test_moved_reports_read_the_same_on_numpy(monkeypatch, capsys):
    """Fig 5, §6.4 and §7 run specs on the backend ``pick`` chooses;
    refusing native everywhere must not change a byte of their text."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    argv = ("fig5", "sec64_alpha", "sec7_hotspot", "sec7_fairness",
            "--scale", "0.01", "--jobs", "1")
    _, picked, err = figure_cli(capsys, *argv)
    assert "backend: specs 0 native" not in err
    monkeypatch.setattr(accel, "unsupported", lambda config: "forced")
    _, forced, err = figure_cli(capsys, *argv)
    assert forced == picked
    assert "backend: specs 0 native, " in err
