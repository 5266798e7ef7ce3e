"""Figure 6: temporal phase behavior of application traffic intensity.

The paper shows injected traffic intensity varying over execution due
to application phases.  The benchmark runs single applications and
records the per-epoch network utilization series: with the phase model
the series fluctuates (coefficient of variation well above the
phase-free baseline); without it the series is flat.
"""

from conftest import once
from repro.experiments import format_table, paper_vs_measured, scaled_cycles
from repro.harness import JobSpec, run_job
from repro.traffic.workloads import make_homogeneous_workload


def _intensity_series(phase_sigma):
    wl = make_homogeneous_workload("gromacs", 16)
    res = run_job(JobSpec.for_workload(
        wl,
        scaled_cycles(12_000),
        epoch=400,
        seed=6,
        config=dict(phase_sigma=phase_sigma, phase_length=1500),
    ))
    return res.epochs["utilization"]


def test_fig6_phase_behavior(benchmark, report):
    def run():
        return _intensity_series(0.8), _intensity_series(0.0)

    with_phases, without = once(benchmark, run)

    def cov(series):
        return float(series.std() / max(series.mean(), 1e-9))

    cov_with, cov_without = cov(with_phases), cov(without)
    report(
        "fig6",
        paper_vs_measured(
            "Fig 6: temporal variation in injected traffic intensity",
            [
                ("traffic intensity varies over time with phases",
                 "visible bursts", f"CoV={cov_with:.2f}", cov_with > 0.1),
                ("variation driven by the phase model",
                 "flat without phases", f"CoV={cov_without:.2f}",
                 cov_with > 2 * cov_without),
            ],
        )
        + format_table(
            ["epoch", "util (phases)", "util (no phases)"],
            [
                (i, float(a), float(b))
                for i, (a, b) in enumerate(zip(with_phases, without))
            ][:20],
        ),
    )
    assert cov_with > 2 * cov_without
