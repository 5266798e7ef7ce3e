"""Multi-run sweep drivers for the paper's figures, as plans.

A driver runs nothing: it enumerates the experiment points as
declarative :class:`~repro.harness.JobSpec` values and returns them in
a :class:`Plan`, with the reducer that reshapes their results into the
structure a report of the figure registry
(:mod:`repro.experiments.figures`) consumes.  :func:`run_plans` runs any
number of plans through one :func:`repro.harness.run_jobs` call, so a
spec two plans share executes once and a cached one not at all;
parallel results are bit-identical to serial because every job derives
its RNG streams from its own spec.  :meth:`Plan.run` runs one plan.  No
spec here names a backend: :func:`repro.native.pick` chooses one.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

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
    "Plan",
    "join",
    "run_plans",
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


class Plan(NamedTuple):
    """Specs to run, and how their results become data: ``reduce`` gets
    one outcome per spec, in order — the result, or for a job a
    guardrail stopped its ``JobRecord.error`` string — and returns the
    data, or a further plan of specs that depend on those results."""

    specs: Sequence[JobSpec]
    reduce: Callable[[list], object]

    def run(self, **kw):
        """This plan's data; *kw* are :func:`run_jobs`' keywords."""
        return run_plans([self], **kw)[0][0]


def join(*plans: Plan, then: Callable = lambda *data: data) -> Plan:
    """One plan of every spec of *plans*; each reduces its own share and
    *then* gets their data, in order (default: the tuple of them)."""
    cuts = [0, *itertools.accumulate(len(plan.specs) for plan in plans)]
    return Plan([spec for plan in plans for spec in plan.specs],
                lambda out: then(*(plan.reduce(out[a:b]) for plan, a, b
                                   in zip(plans, cuts, cuts[1:]))))


def run_plans(plans: Sequence[Plan], **kw) -> Tuple[list, int, List[JobRecord]]:
    """Each plan's data; then how many specs the plans named, and one
    :class:`JobRecord` per distinct spec (by content hash) they ran.

    Every spec of every plan goes to one :func:`run_jobs` call (*kw* are
    its keywords), each distinct one once (it starts the longest
    predicted first); then every plan reduces, in order.  A reducer that
    returns a plan adds a stage: one more call, for the specs no earlier
    call ran.
    """
    data, outcomes = list(plans), {}
    named, records = 0, []
    while stage := [i for i, plan in enumerate(data) if isinstance(plan, Plan)]:
        pending = {}
        for i in stage:
            named += len(data[i].specs)
            pending.update((spec.content_hash(), spec) for spec in data[i].specs
                           if spec.content_hash() not in outcomes)
        if pending:
            report = run_jobs(list(pending.values()), **kw)
            records += report.records
            for res, record in zip(report.results, report.records):
                outcomes[record.key] = record.error if res is None else res
        for i in stage:
            data[i] = data[i].reduce(
                [outcomes[spec.content_hash()] for spec in data[i].specs])
    return data, named, records


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


def alone_ipc(workloads: Sequence[Workload], cycles: int = 2500,
              seed: int = 11, **config) -> Plan:
    """Per-node alone-IPC vector of each workload (weighted speedup,
    §6.2), from :func:`alone_ipc_specs`' runs."""
    specs = alone_ipc_specs(workloads, cycles, seed, **config)

    def reduce(results) -> List[np.ndarray]:
        ipc = {key: float(res.ipc[0]) for key, res in zip(specs, results)}
        return [np.array([0.0 if name is None else ipc[name, wl.num_nodes]
                          for name in wl.app_names]) for wl in workloads]
    return Plan(list(specs.values()), reduce)


def static_throttle_sweep(workload: Workload, rates: Sequence[float],
                          cycles: int, epoch: int = 1000, seed: int = 1,
                          **config) -> Plan:
    """Fig 2(c): throttle all nodes at each rate; ``[(rate, result)]``."""
    specs = [
        JobSpec.for_workload(
            workload, cycles, epoch=epoch, seed=seed, config=config,
            controller=("static", rate) if rate > 0 else ("none",),
        )
        for rate in rates
    ]
    return Plan(specs, lambda results: list(zip(rates, results)))


#: The scaling figures' three variants (Figs 13-16).
SCALING_NETWORKS = ("bless", "bless-throttling", "buffered")


def scaling_sweep(
    sizes: Sequence[int],
    cycles_for,
    networks: Sequence[str] = SCALING_NETWORKS,
    category: str = "H",
    locality: str = "exponential",
    locality_param: float = 1.0,
    epoch: int = 1200,
    seed: int = 2,
    topology: str = "mesh",
) -> Plan:
    """Figs 3 and 13-16: one workload per size, run on each variant of
    ``networks`` (entries of :data:`NETWORK_VARIANTS`);
    ``cycles_for(n)`` maps a node count to a cycle budget, letting large
    networks run shorter.  ``{variant: [(size, result), ...]}``."""
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

    def reduce(results) -> Dict[str, List[Tuple[int, SimulationResult]]]:
        out: Dict[str, list] = {name: [] for name in networks}
        for (name, size, _), res in zip(grid, results):
            out[name].append((size, res))
        return out
    return Plan([spec for _, _, spec in grid], reduce)


def locality_sweep(mean_distances: Sequence[float], num_nodes: int,
                   cycles: int, category: str = "H", seed: int = 3,
                   epoch: int = 1000, **config) -> Plan:
    """Fig 4: per-node throughput vs average hop distance (1/lambda);
    ``[(distance, result)]``."""
    rng = child_rng(seed, "locality-sweep")
    workload = make_workload_batch(1, num_nodes, rng, categories=[category])[0]
    specs = [
        JobSpec.for_workload(workload, cycles, seed=seed, epoch=epoch,
                             locality="exponential", locality_param=mean,
                             config=config)
        for mean in mean_distances
    ]
    return Plan(specs, lambda results: list(zip(mean_distances, results)))


def _comparisons(workloads: Sequence[Workload], cycles: int, epoch: int,
                 seeds: Sequence[int], config: dict, row) -> Plan:
    """Baseline vs mechanism on each of *workloads*: one spec pair each;
    ``[row(i, baseline, mechanism, improvement)]``."""
    specs = [
        JobSpec.for_workload(workload, cycles, controller=recipe,
                             epoch=epoch, seed=seed, config=config)
        for workload, seed in zip(workloads, seeds)
        for recipe in (("none",), ("central",))
    ]

    def reduce(results) -> list:
        return [
            row(i, base, ctl,
                ctl.system_throughput / base.system_throughput - 1.0
                if base.system_throughput > 0 else 0.0)
            for i, (base, ctl) in enumerate(zip(results[::2], results[1::2]))
        ]
    return Plan(specs, reduce)


def pairwise_ipf_grid(apps: Sequence[str], cycles: int, width: int = 4,
                      epoch: int = 1000, seed: int = 4, **config) -> Plan:
    """Figs 11/12: checkerboard pairs of applications.

    For every (app1, app2) pair, runs baseline and mechanism and records
    throughput improvement plus baseline utilization.
    """
    pairs = [(a, b) for a in apps for b in apps]
    workloads = [make_checkerboard_workload(a, b, width) for a, b in pairs]
    return _comparisons(
        workloads, cycles, epoch, [seed] * len(pairs), config,
        lambda i, base, ctl, gain: dict(
            app1=pairs[i][0], app2=pairs[i][1], improvement=gain,
            baseline_utilization=base.network_utilization,
        ),
    )


def workload_batch_comparison(count: int, num_nodes: int, cycles: int,
                              epoch: int = 1000, seed: int = 5,
                              categories=None, **config) -> Plan:
    """Figs 7-10: baseline vs mechanism across a workload batch; the
    specs are one (baseline, mechanism) pair per workload."""
    rng = child_rng(seed, f"batch-{num_nodes}")
    kwargs = {} if categories is None else {"categories": categories}
    workloads = make_workload_batch(count, num_nodes, rng, **kwargs)
    return _comparisons(
        workloads, cycles, epoch, range(seed, seed + count), config,
        lambda i, base, ctl, gain: dict(
            workload=workloads[i], category=workloads[i].category, baseline=base,
            mechanism=ctl, improvement=gain,
        ),
    )
