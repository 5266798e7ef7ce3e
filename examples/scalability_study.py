#!/usr/bin/env python
"""Scalability study: BLESS vs BLESS+throttling vs buffered, 16 -> 1024
cores (Figs 13-16 of the paper, reduced sizes for a quick run).

Each network runs the same high-intensity workload with exponential
data locality (mean request distance 1 hop, the paper's lambda = 1):
most misses are serviced by nearby shared-cache slices, as an
intelligent data-mapping layer would arrange.  Despite that locality,
baseline bufferless per-node throughput sags as the network grows;
source throttling restores near-flat scaling at a fraction of a
buffered router's cost.

Run:  python examples/scalability_study.py
"""

from repro.experiments import format_table, scaling_sweep

SIZES = (16, 64, 256, 1024)


def cycles_for(size: int) -> int:
    # Larger networks need fewer cycles for stable trend estimates.
    return {16: 8000, 64: 8000, 256: 6000, 1024: 4000}[size]


def main():
    print("running 3 networks x 4 sizes (a few minutes)...")
    data = scaling_sweep(SIZES, cycles_for).run()

    rows = []
    for i, size in enumerate(SIZES):
        bless = data["bless"][i][1]
        throt = data["bless-throttling"][i][1]
        buf = data["buffered"][i][1]
        rows.append(
            (
                size,
                bless.throughput_per_node,
                throt.throughput_per_node,
                buf.throughput_per_node,
                f"{bless.avg_net_latency:.0f}/{throt.avg_net_latency:.0f}"
                f"/{buf.avg_net_latency:.0f}",
                f"{100 * throt.power.reduction_vs(bless.power):+.0f}%",
            )
        )
    print()
    print(
        format_table(
            [
                "cores",
                "BLESS IPC/n",
                "+Throttling",
                "Buffered",
                "latency B/T/Buf",
                "power vs BLESS",
            ],
            rows,
        )
    )
    first, last = data["bless"][0][1], data["bless"][-1][1]
    t_first, t_last = data["bless-throttling"][0][1], data["bless-throttling"][-1][1]
    print(
        f"\nbaseline per-node throughput {16}->{SIZES[-1]} cores: "
        f"{100 * (last.throughput_per_node / first.throughput_per_node - 1):+.0f}%"
    )
    print(
        "with congestion control: "
        f"{100 * (t_last.throughput_per_node / t_first.throughput_per_node - 1):+.0f}% "
        "(closer to flat = linear total-throughput scaling)"
    )


if __name__ == "__main__":
    main()
