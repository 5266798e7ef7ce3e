"""Control-plane scaling study and regression gate (PR 9).

Measures what the hierarchical control plane is for: how the paper's
centralized mechanism behaves as the fabric grows.  Every point runs
with ``model_control_traffic`` on, so the 2n control flits per epoch
actually traverse the network into real hub queues; the headline
metrics are the *deterministic* control-plane counters (flits
attempted/sent/dropped at the hub queues) plus delivered throughput —
wall-clock is reported but never gated on.

The sweep crosses networks (bless/buffered/hybrid) with controllers
(central/distributed/hierarchical) at 256, 1024, and 4096 nodes
(thinning the grid at the large end where a full cross product buys
nothing).  The committed ``BENCH_pr9.json`` records the crossover
point: the smallest fabric where the hierarchical scheme either
delivers at least 10x fewer hub-queue control-flit drops than the
central one or out-throughputs it.

Usage::

    # measure the full grid and write the committed payload
    PYTHONPATH=src python benchmarks/bench_control_scaling.py \
        --out BENCH_pr9.json

    # CI gate: re-run the 1024-node bless pair and fail unless the
    # hierarchical scheme still wins (drops or throughput)
    PYTHONPATH=src python benchmarks/bench_control_scaling.py \
        --check --out -

This is a standalone script, not a pytest benchmark: the control
counters are bit-deterministic for a given seed, so the committed
payload is reproducible by re-running the script.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

#: (label, network, controller, nodes, cycles, epoch) measurement grid.
#: The full controller cross at 256 nodes establishes the baseline; the
#: large points keep the pair the crossover is defined on (central vs
#: hierarchical) plus one distributed reference on bless.
POINTS = (
    ("bless-256-central", "bless", "central", 256, 3000, 500),
    ("bless-256-distributed", "bless", "distributed", 256, 3000, 500),
    ("bless-256-hierarchical", "bless", "hierarchical", 256, 3000, 500),
    ("buffered-256-central", "buffered", "central", 256, 3000, 500),
    ("buffered-256-distributed", "buffered", "distributed", 256, 3000, 500),
    ("buffered-256-hierarchical", "buffered", "hierarchical", 256, 3000, 500),
    ("hybrid-256-central", "hybrid", "central", 256, 3000, 500),
    ("hybrid-256-distributed", "hybrid", "distributed", 256, 3000, 500),
    ("hybrid-256-hierarchical", "hybrid", "hierarchical", 256, 3000, 500),
    ("bless-1024-central", "bless", "central", 1024, 1500, 300),
    ("bless-1024-distributed", "bless", "distributed", 1024, 1500, 300),
    ("bless-1024-hierarchical", "bless", "hierarchical", 1024, 1500, 300),
    ("buffered-1024-central", "buffered", "central", 1024, 1500, 300),
    ("buffered-1024-hierarchical", "buffered", "hierarchical",
     1024, 1500, 300),
    ("bless-4096-central", "bless", "central", 4096, 600, 200),
    ("bless-4096-hierarchical", "bless", "hierarchical", 4096, 600, 200),
)

#: The pair the crossover criterion and the CI gate are defined on.
GATE_POINTS = ("bless-1024-central", "bless-1024-hierarchical")

BENCH_SCHEMA = 1


def run_point(
    network: str, controller: str, nodes: int, cycles: int, epoch: int,
    seed: int = 1,
) -> dict:
    """One measured grid point; all counters are seed-deterministic."""
    from repro.config import SimulationConfig
    from repro.control.registry import build_controller
    from repro.sim.simulator import Simulator
    from repro.traffic.workloads import make_category_workload

    workload = make_category_workload(
        "H", nodes, np.random.default_rng(seed)
    )
    config = SimulationConfig(
        workload, seed=seed, epoch=epoch, network=network,
        model_control_traffic=True,
        controller=build_controller((controller,), epoch=epoch),
    )
    sim = Simulator(config)
    start = time.perf_counter()
    result = sim.run(cycles)
    wall = time.perf_counter() - start
    stats = sim.network.stats
    attempted = int(stats.control_flits_attempted)
    dropped = int(stats.control_flits_dropped)
    return {
        "network": network,
        "controller": controller,
        "nodes": nodes,
        "cycles": cycles,
        "epoch": epoch,
        "throughput_per_node": float(result.throughput_per_node),
        "ejected_flits": int(result.ejected_flits),
        "control_flits_attempted": attempted,
        "control_flits_sent": int(stats.control_flits_sent),
        "control_flits_dropped": dropped,
        "control_drop_rate": dropped / attempted if attempted else 0.0,
        "control_domains": (
            sim.domains.num_domains if sim.domains is not None else 0
        ),
        "wall_seconds": wall,
    }


def measure(seed: int = 1, labels=None) -> dict:
    points = {}
    for label, network, controller, nodes, cycles, epoch in POINTS:
        if labels is not None and label not in labels:
            continue
        points[label] = run_point(
            network, controller, nodes, cycles, epoch, seed=seed
        )
        entry = points[label]
        print(f"{label:<26} IPC/node {entry['throughput_per_node']:.3f}  "
              f"ctl {entry['control_flits_sent']}/"
              f"{entry['control_flits_attempted']} sent "
              f"({entry['control_flits_dropped']} dropped)  "
              f"wall {entry['wall_seconds']:.1f}s")
    return points


def hierarchical_wins(central: dict, hier: dict) -> bool:
    """The crossover criterion: 10x fewer hub drops or more throughput."""
    return (
        hier["control_flits_dropped"] * 10 <= central["control_flits_dropped"]
        or hier["throughput_per_node"] > central["throughput_per_node"]
    )


def find_crossover(points: dict) -> dict:
    """Per-(network, nodes) comparison of central vs hierarchical, and
    the smallest fabric where the hierarchical scheme wins."""
    pairs = {}
    for label, entry in points.items():
        if entry["controller"] not in ("central", "hierarchical"):
            continue
        pairs.setdefault(
            (entry["network"], entry["nodes"]), {}
        )[entry["controller"]] = entry
    comparisons = []
    for (network, nodes), pair in sorted(pairs.items()):
        if "central" not in pair or "hierarchical" not in pair:
            continue
        central, hier = pair["central"], pair["hierarchical"]
        comparisons.append({
            "network": network,
            "nodes": nodes,
            "central_drops": central["control_flits_dropped"],
            "hierarchical_drops": hier["control_flits_dropped"],
            "central_ipc": central["throughput_per_node"],
            "hierarchical_ipc": hier["throughput_per_node"],
            "hierarchical_wins": hierarchical_wins(central, hier),
        })
    winning = [c["nodes"] for c in comparisons if c["hierarchical_wins"]]
    return {
        "criterion": "10x fewer control-flit drops or higher IPC/node",
        "comparisons": comparisons,
        "crossover_nodes": min(winning) if winning else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_pr9.json",
                        help="output JSON path ('-' skips the file)")
    parser.add_argument(
        "--check", action="store_true",
        help="gate mode: measure only the 1024-node bless pair and exit "
             "1 unless the hierarchical controller still wins",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    labels = set(GATE_POINTS) if args.check else None
    points = measure(seed=args.seed, labels=labels)
    crossover = find_crossover(points)
    payload = {
        "bench": "pr9-control-scaling",
        "schema": BENCH_SCHEMA,
        "seed": args.seed,
        "points": points,
        "crossover": crossover,
    }

    print()
    for comp in crossover["comparisons"]:
        verdict = "hierarchical" if comp["hierarchical_wins"] else "central"
        print(f"{comp['network']}-{comp['nodes']}: central drops "
              f"{comp['central_drops']}, hierarchical drops "
              f"{comp['hierarchical_drops']} -> {verdict}")
    if crossover["crossover_nodes"] is not None:
        print(f"crossover: hierarchical wins from "
              f"{crossover['crossover_nodes']} nodes")

    if args.out != "-":
        pathlib.Path(args.out).write_text(
            json.dumps(payload, indent=2, sort_keys=True,
                       allow_nan=False) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")

    if args.check:
        central = points.get(GATE_POINTS[0])
        hier = points.get(GATE_POINTS[1])
        if central is None or hier is None:
            print("gate points missing from the measurement", file=sys.stderr)
            return 2
        if not hierarchical_wins(central, hier):
            print(f"control scaling check FAILED: central dropped "
                  f"{central['control_flits_dropped']} control flits vs "
                  f"hierarchical {hier['control_flits_dropped']}, and "
                  f"IPC/node {hier['throughput_per_node']:.3f} <= "
                  f"{central['throughput_per_node']:.3f}", file=sys.stderr)
            return 1
        print("control scaling check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
