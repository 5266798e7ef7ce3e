"""Table 1: per-application Instructions-per-Flit.

Validates the synthetic application models against the paper's own
numbers two ways:

- the raw IPF process of every cataloged application matches its
  Table 1 mean,
- IPF *measured in simulation* (retired instructions / flits) matches
  Table 1 for representative applications across the intensity range,
  demonstrating that IPF is stable under congestion (§4).
"""

import numpy as np

from conftest import once
from repro.experiments import format_table, paper_vs_measured, scaled_cycles
from repro.harness import JobSpec, run_job
from repro.traffic.applications import APPLICATION_CATALOG, ApplicationBehaviorArray
from repro.traffic.workloads import make_homogeneous_workload

REPRESENTATIVE = ("mcf", "milc", "gromacs", "bzip2")


def test_table1_process_moments(benchmark, report):
    def run():
        rng = np.random.default_rng(0)
        rows = []
        for name, spec in sorted(APPLICATION_CATALOG.items()):
            behavior = ApplicationBehaviorArray([spec], flits_per_miss=3,
                                                phase_sigma=0.0)
            ipf = behavior.sample_gap(np.zeros(40_000, dtype=np.int64), rng) / 3.0
            rows.append((name, spec.mean_ipf, float(ipf.mean())))
        return rows

    rows = once(benchmark, run)
    # Applications whose mean miss gap approaches one instruction are
    # clipped by the physical floor (a core cannot miss more than once
    # per instruction); they sit slightly above their Table 1 mean.
    free = [(n, p, m) for n, p, m in rows if p * 3 >= 2.0]
    floored = [(n, p, m) for n, p, m in rows if p * 3 < 2.0]
    ok = all(abs(m - p) / p < 0.25 for _, p, m in free)
    floor_ok = all(m >= p for _, p, m in floored)
    report(
        "table1_process",
        paper_vs_measured(
            "Table 1: application IPF processes vs paper means",
            [
                (f"{len(free)} unclipped applications within 25%", "yes",
                 str(ok), ok),
                (f"{len(floored)} floor-limited apps (gap ~1 insn) biased up only",
                 "expected", str(floor_ok), floor_ok),
            ],
        )
        + format_table(["application", "paper IPF", "model IPF"], rows),
    )
    assert ok and floor_ok


def test_table1_in_simulation(benchmark, report):
    def run():
        rows = []
        for name in REPRESENTATIVE:
            wl = make_homogeneous_workload(name, 16)
            res = run_job(JobSpec.for_workload(
                wl, scaled_cycles(6000), epoch=1000, seed=4,
                config={"phase_sigma": 0.0},
            ))
            measured = float(np.median(res.ipf[np.isfinite(res.ipf)]))
            rows.append((name, APPLICATION_CATALOG[name].mean_ipf, measured))
        return rows

    rows = once(benchmark, run)
    ok = all(0.4 * p < m < 2.5 * p for _, p, m in rows)
    report(
        "table1_insim",
        paper_vs_measured(
            "Table 1: measured in-simulation IPF (congested, homogeneous)",
            [("in-sim IPF tracks Table 1 despite congestion", "stable metric",
              str(ok), ok)],
        )
        + format_table(["application", "paper IPF", "in-sim IPF"], rows),
    )
    assert ok
