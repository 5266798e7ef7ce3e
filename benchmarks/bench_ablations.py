"""Ablations of design choices called out in DESIGN.md §5.

- Oldest-First vs random vs youngest-first deflection arbitration
  (the paper's total-order arbitration is what makes BLESS livelock-
  free and well-behaved under congestion).
- Eject width 1 vs 2 (ejection-port contention is a major deflection
  source near hot destinations).
- Application-aware central throttling vs application-blind static
  throttling at a comparable average rate (the §4 argument).
"""

import functools

from conftest import once
from repro.experiments import (
    format_table,
    paper_vs_measured,
    scaled_cycles,
)
from repro.harness import JobSpec, run_job
from repro.rng import child_rng
from repro.traffic.workloads import make_workload_batch


@functools.lru_cache(maxsize=1)
def _workload():
    rng = child_rng(88, "ablations")
    return make_workload_batch(1, 16, rng, categories=["HM"])[0]


def _run(cycles, controller=("none",), **config):
    return run_job(JobSpec.for_workload(
        _workload(), cycles, epoch=1000, seed=60, controller=controller,
        config=config,
    ))


def test_ablation_arbitration_policy(benchmark, report):
    """Oldest-First trades some average-case throughput for a bounded
    worst case: age priority guarantees the oldest flit is never
    deflected, so no flit's latency can grow without bound.  Policies
    that favor young flits can post better averages on benign traffic
    while letting unlucky flits starve — visible in the max-latency
    column."""

    def run():
        rows = []
        for policy in ("oldest_first", "random", "youngest_first"):
            res = _run(scaled_cycles(6000), arbitration=policy)
            rows.append((policy, res.system_throughput, res.avg_net_latency,
                         res.max_net_latency, res.deflection_rate))
        return rows

    rows = once(benchmark, run)
    by = {r[0]: r for r in rows}
    ok_tail = by["oldest_first"][3] <= min(by["random"][3],
                                           by["youngest_first"][3])
    ok_tp = by["oldest_first"][1] >= 0.7 * max(r[1] for r in rows)
    report(
        "ablation_arbitration",
        paper_vs_measured(
            "Ablation: deflection arbitration policy",
            [
                ("Oldest-First has the smallest worst-case latency",
                 "age total-order bounds the tail (livelock freedom)",
                 f"{by['oldest_first'][3]} vs random {by['random'][3]} / "
                 f"youngest {by['youngest_first'][3]} cycles", ok_tail),
                ("Oldest-First throughput within range of alternatives",
                 "baseline choice", f"{by['oldest_first'][1]:.2f}", ok_tp),
            ],
        )
        + format_table(
            ["policy", "sys throughput", "avg latency", "max latency",
             "deflection rate"],
            rows,
        ),
    )
    assert ok_tail and ok_tp


def test_ablation_eject_width(benchmark, report):
    def run():
        rows = []
        for width in (1, 2):
            res = _run(scaled_cycles(6000), eject_width=width)
            rows.append((width, res.system_throughput, res.avg_net_latency,
                         res.deflection_rate))
        return rows

    rows = once(benchmark, run)
    one, two = rows[0], rows[1]
    ok = two[3] < one[3] and two[2] < one[2]
    report(
        "ablation_eject_width",
        paper_vs_measured(
            "Ablation: ejection width",
            [("dual ejection cuts deflections and latency",
              "ejection contention is a deflection source",
              f"defl {one[3]:.2f}->{two[3]:.2f}, lat {one[2]:.1f}->{two[2]:.1f}",
              ok)],
        )
        + format_table(
            ["eject width", "sys throughput", "latency", "deflection rate"], rows
        ),
    )
    assert ok


def test_ablation_application_awareness(benchmark, report):
    """§4: blind throttling at the mechanism's own average rate loses to
    IPF-aware selection of whom to throttle."""

    def run():
        cycles = scaled_cycles(6000)
        base = _run(cycles)
        aware = _run(cycles, ("central",))
        avg_rate = float(aware.epochs["mean_throttle"].mean())
        blind = _run(cycles, ("static", min(avg_rate, 0.95)))
        return base, aware, blind, avg_rate

    base, aware, blind, avg_rate = once(benchmark, run)
    rows = [
        ("baseline", base.system_throughput),
        ("application-aware (mechanism)", aware.system_throughput),
        (f"application-blind static @ {avg_rate:.2f}", blind.system_throughput),
    ]
    ok = aware.system_throughput > blind.system_throughput
    report(
        "ablation_awareness",
        paper_vs_measured(
            "Ablation: application awareness in throttling",
            [("aware beats blind at the same average rate",
              "whom to throttle matters (§4)",
              f"{aware.system_throughput:.2f} vs {blind.system_throughput:.2f}",
              ok)],
        )
        + format_table(["configuration", "sys throughput"], rows),
    )
    assert ok
