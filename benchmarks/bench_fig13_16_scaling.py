"""Figures 13-16: scalability with congestion control (16 - 4096 cores).

Three networks — baseline BLESS, BLESS + the paper's throttling
mechanism, and the buffered VC router — run the same locality-based
workloads across sizes:

Fig 13: per-node throughput.  Congestion control restores near-flat
        per-node throughput (linear total-throughput scaling); the
        baseline degrades with size.
Fig 14: average network latency — throttling keeps it bounded.
Fig 15: network utilization — throttling moves the network to a more
        efficient operating point below the baseline's.
Fig 16: NoC power — throttling cuts bufferless power by up to ~15-20%.
"""

import functools

from conftest import once
from repro.experiments import (
    format_table,
    paper_vs_measured,
    scaled_cycles,
    scaling_sweep,
)

SIZES = (16, 64, 256, 1024, 4096)

_BASE_CYCLES = {16: 8000, 64: 8000, 256: 6000, 1024: 4000, 4096: 3000}


def _cycles_for(size):
    return scaled_cycles(_BASE_CYCLES[size])


@functools.lru_cache(maxsize=1)
def _sweep():
    # The full (5 sizes x 3 networks) grid ships to repro.harness in one
    # batch; REPRO_JOBS parallelizes it, REPRO_CACHE_DIR makes reruns
    # incremental.
    return scaling_sweep(SIZES, _cycles_for)


def _series(data, metric):
    return {
        name: [(n, getattr(r, metric)) for n, r in rows]
        for name, rows in data.items()
    }


def test_fig13_throughput_scaling(benchmark, report):
    data = once(benchmark, _sweep)
    s = _series(data, "throughput_per_node")
    bless_drop = 1 - s["bless"][-1][1] / s["bless"][0][1]
    throt_drop = 1 - s["bless-throttling"][-1][1] / s["bless-throttling"][0][1]
    buf_drop = 1 - s["buffered"][-1][1] / s["buffered"][0][1]
    gain_4096 = s["bless-throttling"][-1][1] / s["bless"][-1][1] - 1
    claims = [
        ("baseline BLESS IPC/node degrades with size", "large drop",
         f"-{100*bless_drop:.0f}%", bless_drop > 0.2),
        ("throttling flattens the per-node throughput curve",
         "essentially flat in the paper",
         f"-{100*throt_drop:.0f}% (vs -{100*bless_drop:.0f}% baseline)",
         throt_drop < bless_drop),
        ("buffered scales flat", "flat", f"-{100*buf_drop:.0f}%",
         abs(buf_drop) < 0.15),
        ("throughput gain at 4096 cores", "~50%", f"{100*gain_4096:+.0f}%",
         gain_4096 > 0.15),
    ]
    rows = [
        (n, s["bless"][i][1], s["bless-throttling"][i][1], s["buffered"][i][1])
        for i, n in enumerate(SIZES)
    ]
    report(
        "fig13",
        paper_vs_measured("Fig 13: per-node throughput with scale", claims)
        + format_table(["cores", "BLESS", "BLESS-Throttling", "Buffered"], rows),
    )
    assert all(c[3] for c in claims)


def test_fig14_latency_scaling(benchmark, report):
    data = once(benchmark, _sweep)
    s = _series(data, "avg_net_latency")
    rows = [
        (n, s["bless"][i][1], s["bless-throttling"][i][1], s["buffered"][i][1])
        for i, n in enumerate(SIZES)
    ]
    claims = [
        ("BLESS latency grows with scale", "up to ~100 cycles",
         f"{s['bless'][-1][1]:.0f} @4096",
         s["bless"][-1][1] > 1.5 * s["bless"][0][1]),
        ("throttling keeps latency below baseline at scale", "yes",
         f"{s['bless-throttling'][-1][1]:.0f} vs {s['bless'][-1][1]:.0f}",
         s["bless-throttling"][-1][1] < s["bless"][-1][1]),
        ("buffered latency stays near-flat", "flat",
         f"{s['buffered'][-1][1]:.0f} @4096",
         s["buffered"][-1][1] < 1.5 * s["buffered"][0][1]),
    ]
    report(
        "fig14",
        paper_vs_measured("Fig 14: network latency with scale", claims)
        + format_table(["cores", "BLESS", "BLESS-Throttling", "Buffered"], rows),
    )
    assert all(c[3] for c in claims)


def test_fig15_utilization_scaling(benchmark, report):
    data = once(benchmark, _sweep)
    s = _series(data, "network_utilization")
    rows = [
        (n, s["bless"][i][1], s["bless-throttling"][i][1], s["buffered"][i][1])
        for i, n in enumerate(SIZES)
    ]
    claims = [
        ("baseline runs near saturation at scale", "~0.8+",
         f"{s['bless'][-1][1]:.2f}", s["bless"][-1][1] > 0.6),
        ("throttling lowers utilization (efficient point)", "below baseline",
         f"{s['bless-throttling'][-1][1]:.2f}",
         s["bless-throttling"][-1][1] < s["bless"][-1][1]),
        ("buffered utilization lowest (no deflections)", "lowest",
         f"{s['buffered'][-1][1]:.2f}",
         s["buffered"][-1][1] < s["bless-throttling"][-1][1]),
    ]
    report(
        "fig15",
        paper_vs_measured("Fig 15: network utilization with scale", claims)
        + format_table(["cores", "BLESS", "BLESS-Throttling", "Buffered"], rows),
    )
    assert all(c[3] for c in claims)


def test_fig16_power_reduction(benchmark, report):
    data = once(benchmark, _sweep)
    rows = []
    vs_bless_all, vs_buf_all = [], []
    for i, n in enumerate(SIZES):
        throt = data["bless-throttling"][i][1].power
        bless = data["bless"][i][1].power
        buf = data["buffered"][i][1].power
        vs_bless = 100 * throt.reduction_vs(bless)
        vs_buf = 100 * throt.reduction_vs(buf)
        vs_bless_all.append(vs_bless)
        vs_buf_all.append(vs_buf)
        rows.append((n, vs_bless, vs_buf))
    claims = [
        ("power reduction vs baseline BLESS at scale", "up to ~15%",
         f"{max(vs_bless_all):.1f}%", max(vs_bless_all) > 8.0),
        ("reductions substantial at large sizes", "largest at 4096",
         f"{vs_bless_all[-2]:.1f}% @1024, {vs_bless_all[-1]:.1f}% @4096",
         min(vs_bless_all[-2], vs_bless_all[-1]) > 6.0),
    ]
    report(
        "fig16",
        paper_vs_measured("Fig 16: power reduction from congestion control", claims)
        + format_table(
            ["cores", "% vs baseline BLESS", "% vs Buffered"], rows
        )
        + "\nNote: the paper also reports up to 19% reduction vs the buffered\n"
        "router; our buffered baseline runs at lower utilization than the\n"
        "paper's (closed-loop cores saturate at the MSHR limit first), so\n"
        "its power is lower and that margin does not reproduce (see\n"
        "EXPERIMENTS.md).",
    )
    assert all(c[3] for c in claims)
