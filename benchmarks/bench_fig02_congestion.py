"""Figure 2: congestion at the network and application level (4x4 BLESS).

(a) average network latency stays within ~2x across the load range,
(b) starvation rate grows superlinearly with utilization,
(c) static injection throttling finds a better operating point than
    running unthrottled, and the network never reaches utilization 1
    (self-throttling).
"""

import functools

import numpy as np

from conftest import once
from repro.experiments import (
    format_table,
    paper_vs_measured,
    scaled_cycles,
    static_throttle_sweep,
)
from repro.harness import JobSpec, run_jobs
from repro.rng import child_rng
from repro.traffic.workloads import make_workload_batch


@functools.lru_cache(maxsize=1)
def _load_spectrum_runs():
    """A spread of 4x4 workloads spanning low to high utilization."""
    rng = child_rng(42, "fig2-workloads")
    workloads = make_workload_batch(14, 16, rng)
    cycles = scaled_cycles(5000)
    specs = [
        JobSpec.for_workload(w, cycles, epoch=1000, seed=3) for w in workloads
    ]
    return run_jobs(specs, description="fig2-load-spectrum").results


def test_fig2a_latency_vs_utilization(benchmark, report):
    results = once(benchmark, _load_spectrum_runs)
    rows = sorted(
        ((r.network_utilization, r.avg_net_latency) for r in results)
    )
    low = np.mean([lat for u, lat in rows[:4]])
    high = np.mean([lat for u, lat in rows[-4:]])
    ratio = high / low
    report(
        "fig2a",
        paper_vs_measured(
            "Fig 2(a): network latency vs utilization (4x4 BLESS)",
            [
                ("latency ratio (congested / light)", "< ~2.5x", f"{ratio:.2f}x",
                 ratio < 2.5),
                ("max average latency (cycles)", "< ~50", f"{max(l for _, l in rows):.1f}",
                 max(l for _, l in rows) < 50),
            ],
        )
        + format_table(["utilization", "latency"], rows),
    )
    assert ratio < 2.5


def test_fig2b_starvation_vs_utilization(benchmark, report):
    results = once(benchmark, _load_spectrum_runs)
    rows = sorted(
        ((r.network_utilization, r.mean_starvation) for r in results)
    )
    utils = np.array([u for u, _ in rows])
    starv = np.array([s for _, s in rows])
    low = starv[utils < np.median(utils)].mean()
    high = starv[utils >= np.median(utils)].mean()
    u_low = utils[utils < np.median(utils)].mean()
    u_high = utils[utils >= np.median(utils)].mean()
    # superlinear: starvation grows by a larger factor than utilization
    superlinear = (high / max(low, 1e-6)) > (u_high / max(u_low, 1e-6))
    peak = float(starv.max())
    report(
        "fig2b",
        paper_vs_measured(
            "Fig 2(b): starvation rate vs utilization (4x4 BLESS)",
            [
                ("starvation grows superlinearly", "yes", str(superlinear), superlinear),
                ("peak starvation at high load", "~0.3+", f"{peak:.2f}", peak > 0.15),
            ],
        )
        + format_table(["utilization", "starvation"], rows),
    )
    assert superlinear


def test_fig2c_static_throttling_sweep(benchmark, report):
    def run():
        rng = child_rng(42, "fig2c")
        workload = make_workload_batch(1, 16, rng, categories=["H"])[0]
        rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        return static_throttle_sweep(
            workload, rates, scaled_cycles(6000), epoch=1000, seed=3
        )

    results = once(benchmark, run)
    rows = [
        (rate, r.network_utilization, r.system_throughput)
        for rate, r in results
    ]
    base = rows[0][2]
    best = max(r[2] for r in rows)
    best_rate = max(rows, key=lambda r: r[2])[0]
    gain = best / base - 1
    max_util = max(r[1] for r in rows)
    report(
        "fig2c",
        paper_vs_measured(
            "Fig 2(c): static throttling sweep (network-heavy 4x4 workload)",
            [
                ("best throughput gain over unthrottled", "~14%", f"{100*gain:.1f}%",
                 gain > 0.01),
                ("optimal throttling rate", "mid-range (not 0, not max)",
                 f"{best_rate}", 0.0 < best_rate < 0.9),
                ("utilization never reaches 1 (self-throttling)", "yes",
                 f"max {max_util:.2f}", max_util < 1.0),
            ],
        )
        + format_table(["throttle rate", "utilization", "sys throughput"], rows),
    )
    assert gain > 0.0
    assert max_util < 1.0
