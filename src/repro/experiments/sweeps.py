"""Multi-run sweep drivers for the paper's figures.

Every driver here is a thin *spec generator* over
:func:`repro.harness.run_jobs`: it enumerates the experiment points as
declarative :class:`~repro.harness.JobSpec` values, hands the whole
batch to a :class:`Harness`, and reshapes the results into the
figure-specific structure the figure registry
(:mod:`repro.experiments.figures`) consumes.  One ``Harness`` carries
the ``jobs`` / ``cache`` / ``progress`` settings of an invocation: a
sweep runs on ``N`` worker processes with ``jobs=N``, skips every point
already in the content-addressed cache, and executes a spec that two
drivers share only once — re-running a crashed or extended sweep only
executes the new points, and the parallel results are bit-identical to
serial because every job derives its RNG streams from its own spec.
No spec here names a backend: :func:`repro.native.pick` chooses one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.harness import JobRecord, JobSpec, run_jobs
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
    "Harness",
    "scaled_cycles",
    "alone_ipc_specs",
    "alone_ipc",
    "static_throttle_sweep",
    "scaling_sweep",
    "locality_sweep",
    "pairwise_ipf_grid",
    "workload_batch_comparison",
]


def scaled_cycles(base: int, scale: float) -> int:
    """*base* cycles times *scale*, floored at one 1,000-cycle epoch (the
    paper ran 10M cycles, the figures far fewer at scale 1)."""
    return max(int(base * scale), 1000)


class Harness:
    """The :func:`run_jobs` front end every driver of one invocation
    shares: the same ``jobs``/``cache``/``progress`` for each batch, and
    each distinct spec (by content hash) executed at most once however
    many batches ask for it.  Counts what it was asked for and what ran,
    and keeps run_jobs' ``records``."""

    def __init__(self, jobs: Optional[int] = None, cache=None,
                 progress=False):
        self.jobs, self.cache, self.progress = jobs, cache, progress
        self._results: Dict[str, Optional[SimulationResult]] = {}
        self.requested = self.cache_hits = self.executed = 0
        self.records: List[JobRecord] = []

    @property
    def distinct(self) -> int:
        return len(self._results)

    def run(self, specs: Sequence[JobSpec], description: str = "sweep"
            ) -> List[Optional[SimulationResult]]:
        """Results aligned with *specs* (``None`` for a job a guardrail
        stopped); only specs this harness has not seen go to run_jobs."""
        keys = [spec.content_hash() for spec in specs]
        pending = {}
        for key, spec in zip(keys, specs):
            if key not in self._results:
                pending.setdefault(key, spec)
        if pending:
            report = run_jobs(
                list(pending.values()), jobs=self.jobs, cache=self.cache,
                progress=self.progress, description=description,
            )
            self._results.update(zip(pending, report.results))
            self.cache_hits += report.cache_hits
            self.executed += report.executed
            self.records += report.records
        self.requested += len(keys)
        return [self._results[key] for key in keys]


def _run(harness: Optional[Harness], specs, description: str):
    return (Harness() if harness is None else harness).run(specs, description)


#: variant -> (network, controller recipe) for the scaling figures:
#: every router model without congestion control, plus the paper's
#: mechanism on BLESS.
NETWORK_VARIANTS = {name: (name, ("none",)) for name in NETWORK_MODELS}
NETWORK_VARIANTS["bless-throttling"] = ("bless", ("central",))


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
    workloads: Sequence[Workload], cycles: int = 2500, seed: int = 11,
    harness: Optional[Harness] = None, **config,
) -> List[np.ndarray]:
    """Per-node alone-IPC vector of each workload (weighted speedup,
    §6.2); the batch's alone runs go to the harness in one call."""
    specs = alone_ipc_specs(workloads, cycles, seed, **config)
    results = _run(harness, list(specs.values()), "alone-ipc")
    ipc = {key: float(res.ipc[0]) for key, res in zip(specs, results)}
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
    harness: Optional[Harness] = None,
    **config,
) -> List[Tuple[float, SimulationResult]]:
    """Fig 2(c): throttle all nodes at each rate, record the outcome."""
    specs = [
        JobSpec.for_workload(
            workload,
            cycles,
            epoch=epoch,
            seed=seed,
            controller=("static", rate) if rate > 0 else ("none",),
            config=config,
        )
        for rate in rates
    ]
    return list(zip(rates, _run(harness, specs, "static-throttle")))


#: The scaling figures' three variants (Figs 13-16).
SCALING_NETWORKS = ("bless", "bless-throttling", "buffered")


def scaling_sweep(
    sizes: Sequence[int],
    cycles_for,
    networks: Sequence[str] = SCALING_NETWORKS,
    harness: Optional[Harness] = None,
    category: str = "H",
    locality: str = "exponential",
    locality_param: float = 1.0,
    epoch: int = 1200,
    seed: int = 2,
    topology: str = "mesh",
) -> Dict[str, List[Tuple[int, SimulationResult]]]:
    """Figs 3 and 13-16: one workload per size, run on each variant of
    ``networks`` (entries of :data:`NETWORK_VARIANTS`) as one
    embarrassingly parallel batch; ``cycles_for(n)`` maps a node count
    to a cycle budget, letting large networks run shorter.
    ``{variant: [(size, result), ...]}``."""
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
    results = _run(harness, [spec for _, _, spec in grid], "scaling")
    out: Dict[str, List[Tuple[int, SimulationResult]]] = {n: [] for n in networks}
    for (name, size, _), res in zip(grid, results):
        out[name].append((size, res))
    return out


def locality_sweep(
    mean_distances: Sequence[float],
    num_nodes: int,
    cycles: int,
    category: str = "H",
    seed: int = 3,
    epoch: int = 1000,
    harness: Optional[Harness] = None,
    **config,
) -> List[Tuple[float, SimulationResult]]:
    """Fig 4: per-node throughput vs average hop distance (1/lambda)."""
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
            config=config,
        )
        for mean in mean_distances
    ]
    return list(zip(mean_distances, _run(harness, specs, "locality")))


def _comparison_specs(
    workload: Workload, cycles: int, epoch: int, seed: int, config: dict
) -> List[JobSpec]:
    """The (baseline, mechanism) spec pair of one comparison point."""
    common = dict(epoch=epoch, seed=seed, config=config)
    return [
        JobSpec.for_workload(workload, cycles, controller=("none",), **common),
        JobSpec.for_workload(workload, cycles, controller=("central",), **common),
    ]


def _improvement(base: SimulationResult, ctl: SimulationResult) -> float:
    if base.system_throughput > 0:
        return ctl.system_throughput / base.system_throughput - 1.0
    return 0.0


def pairwise_ipf_grid(
    apps: Sequence[str],
    cycles: int,
    width: int = 4,
    epoch: int = 1000,
    seed: int = 4,
    harness: Optional[Harness] = None,
    **config,
) -> List[dict]:
    """Figs 11/12: checkerboard pairs of applications.

    For every (app1, app2) pair, runs baseline and mechanism and records
    throughput improvement plus baseline utilization.
    """
    pairs = [(a, b) for a in apps for b in apps]
    specs = []
    for app1, app2 in pairs:
        workload = make_checkerboard_workload(app1, app2, width)
        specs.extend(_comparison_specs(workload, cycles, epoch, seed, config))
    results = _run(harness, specs, "pairwise-ipf")
    return [
        {
            "app1": app1,
            "app2": app2,
            "improvement": _improvement(base, ctl),
            "baseline_utilization": base.network_utilization,
        }
        for (app1, app2), base, ctl in zip(pairs, results[::2], results[1::2])
    ]


def workload_batch_comparison(
    count: int,
    num_nodes: int,
    cycles: int,
    epoch: int = 1000,
    seed: int = 5,
    categories=None,
    harness: Optional[Harness] = None,
    **config,
) -> List[dict]:
    """Figs 7-10: baseline vs mechanism across a workload batch."""
    rng = child_rng(seed, f"batch-{num_nodes}")
    kwargs = {} if categories is None else {"categories": categories}
    workloads = make_workload_batch(count, num_nodes, rng, **kwargs)
    specs = []
    for i, workload in enumerate(workloads):
        specs.extend(_comparison_specs(workload, cycles, epoch, seed + i, config))
    results = _run(harness, specs, "workload-batch")
    return [
        {
            "workload": workload,
            "category": workload.category,
            "baseline": base,
            "mechanism": ctl,
            "improvement": _improvement(base, ctl),
        }
        for workload, base, ctl in zip(workloads, results[::2], results[1::2])
    ]
