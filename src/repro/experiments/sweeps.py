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

import os
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.harness import JobSpec, run_jobs
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
    "bench_scale",
    "scaled_cycles",
    "alone_ipc_specs",
    "alone_ipc",
    "static_throttle_sweep",
    "scaling_specs",
    "scaling_sweep",
    "locality_sweep",
    "pairwise_ipf_grid",
    "workload_batch_comparison",
]


def bench_scale() -> float:
    """Cycle-budget multiplier from ``REPRO_BENCH_SCALE`` (default 1.0;
    the paper ran 10M cycles, the benchmarks far fewer)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled_cycles(base: int) -> int:
    """Apply the bench scale to a cycle budget."""
    return max(int(base * bench_scale()), 1000)


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


def alone_ipc_specs(
    workloads: Sequence[Workload], cycles: int = 2500, seed: int = 11, **config
) -> Dict[Tuple[str, int], JobSpec]:
    """One run per distinct ``(app, nodes)``: the app at node 0, every
    other node idle.  Alone-IPC is a property of the application and the
    network, not of the mix, so workloads share its spec and cache entry.
    """
    specs: Dict[Tuple[str, int], JobSpec] = {}
    for workload in workloads:
        n = workload.num_nodes
        for name in workload.app_names:
            if name is not None and (name, n) not in specs:
                alone = Workload((name,) + (None,) * (n - 1), category="ALONE")
                specs[name, n] = JobSpec.for_workload(
                    alone, cycles, seed=seed, config=config
                )
    return specs


def alone_ipc(
    workloads: Sequence[Workload], cycles: int = 2500, seed: int = 11, **kw
) -> List[np.ndarray]:
    """Per-node alone-IPC vector of each workload (weighted speedup,
    §6.2); the batch's alone runs go to the harness in one call."""
    harness_kw = _split_harness_kw(kw)
    specs = alone_ipc_specs(workloads, cycles, seed, **kw)
    report = run_jobs(list(specs.values()), description="alone-ipc", **harness_kw)
    ipc = {key: float(res.ipc[0]) for key, res in zip(specs, report.results)}
    return [
        np.array([
            0.0 if name is None else ipc[name, workload.num_nodes]
            for name in workload.app_names
        ])
        for workload in workloads
    ]


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
    report = run_jobs(specs, description="static-throttle", **harness_kw)
    return list(zip(rates, report.results))


#: The scaling figures' three variants (Figs 13-16).
SCALING_NETWORKS = ("bless", "bless-throttling", "buffered")


def scaling_specs(
    sizes: Sequence[int],
    cycles_for,
    category: str = "H",
    networks: Sequence[str] = SCALING_NETWORKS,
    locality: str = "exponential",
    locality_param: float = 1.0,
    epoch: int = 1200,
    seed: int = 2,
    topology: str = "mesh",
) -> List[Tuple[str, int, JobSpec]]:
    """Figs 3 and 13-16's grid as ``(variant, size, spec)`` rows: one
    workload per size, each variant of ``networks`` (entries of
    :data:`NETWORK_VARIANTS`); ``cycles_for(n)`` maps a node count to a
    cycle budget, letting large networks run shorter.
    """
    grid = []
    for size in sizes:
        rng = child_rng(seed, f"scaling-{size}")
        workload = make_workload_batch(1, size, rng, categories=[category])[0]
        for name in networks:
            network, controller = NETWORK_VARIANTS[name]
            spec = JobSpec.for_workload(
                workload, cycles_for(size), epoch=epoch, seed=seed,
                controller=controller, network=network, locality=locality,
                locality_param=locality_param, topology=topology,
            )
            grid.append((name, size, spec))
    return grid


def scaling_sweep(
    sizes: Sequence[int],
    cycles_for,
    networks: Sequence[str] = SCALING_NETWORKS,
    **kw,
) -> Dict[str, List[Tuple[int, SimulationResult]]]:
    """Run :func:`scaling_specs`' grid, embarrassingly parallel, as one
    batch; ``{variant: [(size, result), ...]}``."""
    harness_kw = _split_harness_kw(kw)
    grid = scaling_specs(sizes, cycles_for, networks=networks, **kw)
    report = run_jobs(
        [spec for _, _, spec in grid], description="scaling", **harness_kw
    )
    out: Dict[str, List[Tuple[int, SimulationResult]]] = {n: [] for n in networks}
    for (name, size, _), res in zip(grid, report.results):
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
    report = run_jobs(specs, description="locality", **harness_kw)
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
    report = run_jobs(specs, description="pairwise-ipf", **harness_kw)
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
    report = run_jobs(specs, description="workload-batch", **harness_kw)
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
