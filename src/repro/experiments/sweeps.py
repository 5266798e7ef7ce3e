"""Multi-run sweep drivers for the paper's figures.

Every driver here is a thin *spec generator* over
:func:`repro.harness.run_jobs`: it enumerates the experiment points as
declarative :class:`~repro.harness.JobSpec` values, hands the whole
batch to the harness, and reshapes the results into the figure-specific
structure the benchmarks consume.  All drivers therefore share the
harness's ``jobs`` / ``cache`` / ``progress`` keywords: a sweep runs on
``N`` worker processes with ``jobs=N`` and skips every point already in
the content-addressed cache — re-running a crashed or extended sweep
only executes the new points, and the parallel results are bit-identical
to serial because every job derives its RNG streams from its own spec.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness import HarnessReport, JobSpec, run_jobs
from repro.network import NETWORK_MODELS
from repro.rng import child_rng
from repro.sim.results import SimulationResult
from repro.traffic.workloads import (
    Workload,
    make_checkerboard_workload,
    make_workload_batch,
)

__all__ = [
    "NETWORK_VARIANTS",
    "static_throttle_sweep",
    "scaling_sweep",
    "locality_sweep",
    "pairwise_ipf_grid",
    "workload_batch_comparison",
]

#: variant -> (network, controller recipe) for the scaling figures:
#: every router model without congestion control, plus the paper's
#: mechanism on BLESS.
NETWORK_VARIANTS = {name: (name, ("none",)) for name in NETWORK_MODELS}
NETWORK_VARIANTS["bless-throttling"] = ("bless", ("central",))

#: Per-driver keywords routed to the harness, not to SimulationConfig.
_HARNESS_KW = ("jobs", "cache", "progress")


def _split_harness_kw(kw: dict) -> dict:
    """Pop the harness-routing keywords out of a driver's ``**kw``."""
    return {name: kw.pop(name) for name in _HARNESS_KW if name in kw}


def _sweep(specs, harness_kw: dict, description: str) -> HarnessReport:
    return run_jobs(specs, description=description, **harness_kw)


def static_throttle_sweep(
    workload: Workload,
    rates: Sequence[float],
    cycles: int,
    epoch: int = 1000,
    seed: int = 1,
    **kw,
) -> List[Tuple[float, SimulationResult]]:
    """Fig 2(c): throttle all nodes at each rate, record the outcome."""
    harness_kw = _split_harness_kw(kw)
    specs = [
        JobSpec.for_workload(
            workload,
            cycles,
            epoch=epoch,
            seed=seed,
            controller=("static", rate) if rate > 0 else ("none",),
            config=kw,
        )
        for rate in rates
    ]
    report = _sweep(specs, harness_kw, "static-throttle")
    return list(zip(rates, report.results))


def scaling_sweep(
    sizes: Sequence[int],
    cycles_for,
    category: str = "H",
    networks: Sequence[str] = ("bless", "bless-throttling", "buffered"),
    locality: str = "exponential",
    locality_param: float = 1.0,
    epoch: int = 1200,
    seed: int = 2,
    topology: str = "mesh",
    jobs: Optional[int] = None,
    cache=None,
    progress=False,
) -> Dict[str, List[Tuple[int, SimulationResult]]]:
    """Figs 3 and 13-16: one workload per size, each network variant.

    ``networks`` names entries of :data:`NETWORK_VARIANTS`;
    ``cycles_for(n)`` maps a node count to a cycle budget, letting large
    networks run shorter.  The (size x network) grid is embarrassingly
    parallel — all points go to the harness as one batch.
    """
    specs = []
    index: List[Tuple[str, int]] = []
    for size in sizes:
        rng = child_rng(seed, f"scaling-{size}")
        workload = make_workload_batch(1, size, rng, categories=[category])[0]
        for name in networks:
            network, controller = NETWORK_VARIANTS[name]
            specs.append(
                JobSpec.for_workload(
                    workload,
                    cycles_for(size),
                    epoch=epoch,
                    seed=seed,
                    controller=controller,
                    network=network,
                    locality=locality,
                    locality_param=locality_param,
                    topology=topology,
                )
            )
            index.append((name, size))
    report = _sweep(
        specs, {"jobs": jobs, "cache": cache, "progress": progress}, "scaling"
    )
    out: Dict[str, List[Tuple[int, SimulationResult]]] = {n: [] for n in networks}
    for (name, size), res in zip(index, report.results):
        out[name].append((size, res))
    return out


def locality_sweep(
    mean_distances: Sequence[float],
    num_nodes: int,
    cycles: int,
    category: str = "H",
    seed: int = 3,
    epoch: int = 1000,
    **kw,
) -> List[Tuple[float, SimulationResult]]:
    """Fig 4: per-node throughput vs average hop distance (1/lambda)."""
    harness_kw = _split_harness_kw(kw)
    rng = child_rng(seed, "locality-sweep")
    workload = make_workload_batch(1, num_nodes, rng, categories=[category])[0]
    specs = [
        JobSpec.for_workload(
            workload,
            cycles,
            seed=seed,
            epoch=epoch,
            locality="exponential",
            locality_param=mean,
            config=kw,
        )
        for mean in mean_distances
    ]
    report = _sweep(specs, harness_kw, "locality")
    return list(zip(mean_distances, report.results))


def _comparison_specs(
    workload: Workload, cycles: int, epoch: int, seed: int, config: dict
) -> List[JobSpec]:
    """The (baseline, mechanism) spec pair of one comparison point."""
    common = dict(epoch=epoch, seed=seed, config=config)
    return [
        JobSpec.for_workload(workload, cycles, controller=("none",), **common),
        JobSpec.for_workload(workload, cycles, controller=("central",), **common),
    ]


def pairwise_ipf_grid(
    apps: Sequence[str],
    cycles: int,
    width: int = 4,
    epoch: int = 1000,
    seed: int = 4,
    **kw,
) -> List[dict]:
    """Figs 11/12: checkerboard pairs of applications.

    For every (app1, app2) pair, runs baseline and mechanism and records
    throughput improvement plus baseline utilization.
    """
    harness_kw = _split_harness_kw(kw)
    pairs = [(a, b) for a in apps for b in apps]
    specs = []
    for app1, app2 in pairs:
        workload = make_checkerboard_workload(app1, app2, width)
        specs.extend(_comparison_specs(workload, cycles, epoch, seed, kw))
    report = _sweep(specs, harness_kw, "pairwise-ipf")
    rows = []
    for i, (app1, app2) in enumerate(pairs):
        base, ctl = report.results[2 * i], report.results[2 * i + 1]
        improvement = 0.0
        if base.system_throughput > 0:
            improvement = ctl.system_throughput / base.system_throughput - 1.0
        rows.append(
            {
                "app1": app1,
                "app2": app2,
                "improvement": improvement,
                "baseline_utilization": base.network_utilization,
            }
        )
    return rows


def workload_batch_comparison(
    count: int,
    num_nodes: int,
    cycles: int,
    epoch: int = 1000,
    seed: int = 5,
    categories=None,
    **kw,
) -> List[dict]:
    """Figs 7-10: baseline vs mechanism across a workload batch."""
    harness_kw = _split_harness_kw(kw)
    rng = child_rng(seed, f"batch-{num_nodes}")
    kwargs = {} if categories is None else {"categories": categories}
    workloads = make_workload_batch(count, num_nodes, rng, **kwargs)
    specs = []
    for i, workload in enumerate(workloads):
        specs.extend(_comparison_specs(workload, cycles, epoch, seed + i, kw))
    report = _sweep(specs, harness_kw, "workload-batch")
    rows = []
    for i, workload in enumerate(workloads):
        base, ctl = report.results[2 * i], report.results[2 * i + 1]
        improvement = 0.0
        if base.system_throughput > 0:
            improvement = ctl.system_throughput / base.system_throughput - 1.0
        rows.append(
            {
                "workload": workload,
                "category": workload.category,
                "baseline": base,
                "mechanism": ctl,
                "improvement": improvement,
            }
        )
    return rows
