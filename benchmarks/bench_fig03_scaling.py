"""Figure 3 and §3.2: baseline BLESS scalability from 16 to 4096 cores.

Even with exponential data locality (lambda = 1), congestion makes the
baseline bufferless network increasingly inefficient with size: average
latency grows, starvation approaches 0.4, and per-node throughput
drops.  With naive uniform striping the degradation is far worse
(the paper reports -73% per-node throughput from 4x4 to 64x64).

All simulations run through :mod:`repro.harness` (``REPRO_JOBS``
parallelizes them; with ``REPRO_CACHE_DIR`` set, results may come from
the on-disk cache instead of fresh runs).
"""

import functools

from conftest import once
from repro.experiments import (
    format_table,
    paper_vs_measured,
    scaled_cycles,
    scaling_sweep,
)
from repro.harness import JobSpec, run_jobs
from repro.rng import child_rng
from repro.traffic.workloads import make_workload_batch

SIZES = (16, 64, 256, 1024, 4096)

_BASE_CYCLES = {16: 8000, 64: 8000, 256: 6000, 1024: 4000, 4096: 3000}


def _cycles_for(size):
    return scaled_cycles(_BASE_CYCLES[size])


@functools.lru_cache(maxsize=1)
def _bless_scaling():
    return scaling_sweep(SIZES, _cycles_for, networks=("bless",))["bless"]


def test_fig3a_latency_grows_with_size(benchmark, report):
    results = once(benchmark, _bless_scaling)
    rows = [(n, r.avg_net_latency) for n, r in results]
    growth = rows[-1][1] / rows[0][1]
    report(
        "fig3a",
        paper_vs_measured(
            "Fig 3(a): average network latency vs CMP size (BLESS, locality)",
            [
                ("latency grows with size", ">2x from 16 to 4096",
                 f"{growth:.1f}x", growth > 2.0),
                ("4096-core latency", "~60 cycles", f"{rows[-1][1]:.1f}",
                 20 < rows[-1][1] < 100),
            ],
        )
        + format_table(["cores", "latency (cycles)"], rows),
    )
    assert growth > 2.0


def test_fig3b_starvation_grows_with_size(benchmark, report):
    results = once(benchmark, _bless_scaling)
    rows = [(n, r.mean_starvation) for n, r in results]
    report(
        "fig3b",
        paper_vs_measured(
            "Fig 3(b): starvation rate vs CMP size (BLESS, locality)",
            [
                ("starvation at 4096 cores", "~0.4", f"{rows[-1][1]:.2f}",
                 0.25 < rows[-1][1] < 0.6),
                ("grows with size", ">=2x from 16 to 4096",
                 f"{rows[-1][1]/max(rows[0][1],1e-6):.1f}x",
                 rows[-1][1] > 1.5 * rows[0][1]),
            ],
        )
        + format_table(["cores", "starvation rate"], rows),
    )
    assert rows[-1][1] > 1.5 * rows[0][1]


def test_fig3c_per_node_throughput_drops(benchmark, report):
    results = once(benchmark, _bless_scaling)
    rows = [(n, r.throughput_per_node) for n, r in results]
    drop = 1 - rows[-1][1] / rows[0][1]
    report(
        "fig3c",
        paper_vs_measured(
            "Fig 3(c): per-node throughput vs CMP size (BLESS, locality)",
            [
                ("IPC/node drops with scale", "monotone-ish decline",
                 f"-{100*drop:.0f}% at 4096", drop > 0.2),
            ],
        )
        + format_table(["cores", "IPC/node"], rows),
    )
    assert drop > 0.2


def test_uniform_striping_collapse(benchmark, report):
    """§3.2: with uniform data striping, per-node throughput collapses
    from 4x4 to 64x64 (paper: -73%).  Both points go to the harness as
    one batch instead of a hand-rolled serial loop."""

    def run():
        striping_sizes = (16, 4096)
        specs = []
        for size in striping_sizes:
            rng = child_rng(9, f"striping-{size}")
            wl = make_workload_batch(1, size, rng, categories=["H"])[0]
            specs.append(
                JobSpec.for_workload(
                    wl, _cycles_for(size),
                    epoch=1200, seed=2, locality="uniform",
                )
            )
        harness = run_jobs(specs, description="striping")
        return list(zip(striping_sizes, harness.results))

    results = once(benchmark, run)
    small = results[0][1].throughput_per_node
    large = results[1][1].throughput_per_node
    drop = 1 - large / small
    report(
        "sec32_striping",
        paper_vs_measured(
            "§3.2: uniform striping, per-node throughput 4x4 -> 64x64",
            [("per-node throughput drop", "-73%", f"-{100*drop:.0f}%", drop > 0.5)],
        )
        + format_table(
            ["cores", "IPC/node"],
            [(n, r.throughput_per_node) for n, r in results],
        ),
    )
    assert drop > 0.5
