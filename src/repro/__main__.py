"""Command-line front end: ``run`` one NoC simulation or a grid of them,
or regenerate the paper's reports with ``figure``.

Examples::

    python -m repro --category H --nodes 16 --cycles 20000
    python -m repro --app mcf --nodes 256 --network buffered \
        --locality exponential --locality-param 1.0

``run`` is the default verb.  ``--nodes``, ``--network`` and
``--controller`` take several values.  An invocation that describes
more than one run, or one given ``--jobs`` or ``--cache-dir``, is a
grid through :mod:`repro.harness` (parallel workers, a
content-addressed result cache) printed one row per run; no grid spec
names a backend unless ``--backend`` does (stderr gets the split)::

    python -m repro run --nodes 16 64 256 --controller none central \
        --epoch 1200 --jobs 4 --cache-dir ~/.cache/repro-sweeps

A result that carries a chaos campaign prints its per-event table, and
a run or grid row that lost an in-network flit exits 1.  ``--profile``
adds per-phase timing, ``--trace`` sampled flit tracing, and
``--overhead-check PCT`` exits 1 when per-phase timing costs more than
PCT percent against a plain run::

    python -m repro --chaos-script examples/chaos_demo.json \
        --check-invariants --watchdog 2000 --cycles 5000
    python -m repro --nodes 64 --cycles 6000 --epoch 1000 --profile \
        --trace --overhead-check 5

``figure`` regenerates the paper's reports from the figure registry
(:mod:`repro.experiments.figures`) through the same harness flags,
exits 1 naming every claim that does not hold, and with ``--markdown``
rewrites their blocks in EXPERIMENTS.md::

    python -m repro figure fig3a fig3b --scale 0.5 --jobs 2

A flag that sets a ``SimulationConfig`` field is declared from that
field's metadata (:func:`_config_flags`).  Both verbs describe their
runs as :class:`~repro.harness.JobSpec` values and build them with
:func:`repro.harness.build`, the simulator's one construction site;
bad input exits 2 with one ``error:`` line before a cycle runs.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import itertools
import os
import sys
import time

import numpy as np

from repro import (
    SimulationConfig,
    WORKLOAD_CATEGORIES,
    make_category_workload,
    make_homogeneous_workload,
)
from repro.control.hierarchical import COORDINATION_MODES
from repro.control.registry import CONTROLLER_NAMES, CONTROLLERS
from repro.experiments.sweeps import Harness
from repro.guardrails import FaultConfig, GuardrailError
from repro.harness import (
    JobSpec,
    ResultCache,
    build,
    default_jobs,
    resolve_jobs,
    run_jobs,
)
from repro.native import NativeUnsupported
from repro.topology.registry import TOPOLOGIES

__all__ = ["main", "build_parser", "build_figure_parser", "figure_main"]

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(SimulationConfig)}


def _config_flags(parser, *names: str, grid=False, **defaults) -> None:
    """Declare the flags of the ``SimulationConfig`` fields *names* from
    their metadata: type from the default, ``store_true`` for a bool,
    the field's own default unless *defaults* overrides it.  A *grid*
    flag takes one or more values and defaults to a one-value list."""
    for name in names:
        field = _CONFIG_FIELDS[name]
        meta = field.metadata
        flag = meta.get("flag", "--" + name.replace("_", "-"))
        default = defaults.get(name, field.default)
        if isinstance(default, bool):
            parser.add_argument(flag, dest=name, action="store_true",
                                help=meta["help"])
        else:
            choices = meta.get("choices")
            parser.add_argument(
                flag, dest=name, default=[default] if grid else default,
                nargs="+" if grid else None, choices=choices,
                type=None if choices else type(default), help=meta["help"],
            )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Cycle-level bufferless/buffered NoC simulation "
        "(SIGCOMM 2012 congestion-control reproduction)",
    )
    workload = parser.add_mutually_exclusive_group()
    workload.add_argument(
        "--app", help="homogeneous workload of one Table-1 application"
    )
    workload.add_argument(
        "--category", choices=WORKLOAD_CATEGORIES, default=None,
        help="random workload category (default: H)",
    )
    parser.add_argument("--nodes", type=int, nargs="+", default=[16],
                        help="node count(s) (square mesh; default 16)")
    parser.add_argument("--cycles", type=_positive_int, default=20_000)
    _config_flags(parser, "seed", "epoch", seed=1, epoch=2_000)
    _config_flags(parser, "network", grid=True)
    _config_flags(parser, "topology")
    parser.add_argument("--controller", choices=CONTROLLER_NAMES, nargs="+",
                        default=["none"])
    parser.add_argument("--static-rate", type=float, default=0.5,
                        help="rate for --controller static")
    # Without --backend one run takes numpy, a grid repro.native.pick's.
    _config_flags(parser, "backend", "depth", "chiplet_tile",
                  "express_stride", backend=None)
    parser.add_argument(
        "--controller-domains", type=int, default=0, metavar="N",
        help="hierarchical controller: control-domain count "
             "(0 = the topology's natural partition)",
    )
    parser.add_argument(
        "--controller-mode", choices=COORDINATION_MODES, default="global",
        help="hierarchical controller: throttle against the global mean "
             "IPF or each domain's local mean",
    )
    parser.add_argument(
        "--list-controllers", action="store_true",
        help="print the controller registry table and exit",
    )
    parser.add_argument(
        "--list-topologies", action="store_true",
        help="print the topology registry table and exit",
    )
    _config_flags(parser, "locality", "locality_param")
    observability = parser.add_argument_group("observability")
    _config_flags(observability,
                  "profile", "trace", "trace_sample", "trace_capacity")
    observability.add_argument(
        "--overhead-check", type=float, default=None, metavar="PCT",
        help="also time per-phase timing enabled vs a plain run and "
             "exit 1 if it costs more than PCT percent",
    )
    guard = parser.add_argument_group("guardrails")
    _config_flags(guard, "check_invariants", "watchdog_window",
                  "max_flit_age")
    guard.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the run",
    )
    faults = parser.add_argument_group("fault injection")
    faults.add_argument(
        "--link-faults", type=float, default=0.0, metavar="RATE",
        help="fraction of links failed permanently before the run",
    )
    faults.add_argument(
        "--router-faults", type=float, default=0.0, metavar="RATE",
        help="fraction of routers fail-stopped before the run",
    )
    faults.add_argument(
        "--transient-faults", type=float, default=0.0, metavar="RATE",
        help="per-link per-cycle probability of a one-cycle fault",
    )
    faults.add_argument("--fault-seed", type=int, default=0)
    faults.add_argument(
        "--chaos-script", default=None, metavar="PATH",
        help="JSON chaos campaign (ChaosConfig) applied mid-run; see "
             "examples/chaos_demo.json",
    )
    _harness_flags(parser)
    return parser


def build_figure_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro figure",
        description="Regenerate the paper's reports from the figure "
        "registry (repro.experiments.figures) and print them; exit 1 "
        "naming every claim that does not hold.",
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help="reports to regenerate (default: all, in EXPERIMENTS.md order)",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="cycle-budget multiplier; every run floors at 1000 cycles "
             "(default 1)",
    )
    parser.add_argument(
        "--markdown", default=None, metavar="PATH",
        help="rewrite the fenced report under each regenerated report's "
             "'## label' heading of PATH in place",
    )
    _harness_flags(parser)
    return parser


def _harness_flags(parser) -> None:
    """Declare the harness flags a ``run`` grid and ``figure`` share."""
    harness = parser.add_argument_group("harness")
    harness.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: $REPRO_JOBS or 1; 0 = all cores)",
    )
    harness.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache; reruns skip cached points",
    )
    harness.add_argument(
        "--no-progress", action="store_true",
        help="suppress the live progress line on stderr",
    )


def _harness_settings(args):
    """``(jobs, cache_dir, cache)`` the harness flags select, falling
    back to ``$REPRO_JOBS`` and ``$REPRO_CACHE_DIR``."""
    jobs = default_jobs() if args.jobs is None else resolve_jobs(args.jobs)
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    return jobs, cache_dir, ResultCache(cache_dir) if cache_dir else None


def _load_chaos_script(path):
    """The campaign in *path*; ``ValueError`` saying why it cannot load."""
    from repro.chaos import ChaosConfig

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return ChaosConfig.from_json(handle.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot load chaos script {path!r}: {exc}") from exc


def _pop_controller_recipe(opts: dict) -> tuple:
    """Pop ``--controller`` and every recipe flag the parser defines;
    return the ``(name, *args)`` recipe of the chosen entry."""
    name = opts.pop("controller")
    flags = {arg.dest: opts.pop(arg.dest) for entry in CONTROLLERS.values()
             for arg in entry.args if arg.dest in opts}
    chosen = CONTROLLERS[name].args
    return (name, *(flags[arg.dest] for arg in chosen if arg.dest in flags))


#: Dests of the front end itself rather than of the runs it describes.
_FRONT_END = ("list_controllers", "list_topologies", "overhead_check",
              "jobs", "cache_dir", "no_progress")


def _specs(args) -> list:
    """The runs *args* describe: one per cell of the ``--nodes`` x
    ``--network`` x ``--controller`` grid, each the spec of the single
    run with that cell's values (:func:`_spec`)."""
    opts = {k: v for k, v in vars(args).items() if k not in _FRONT_END}
    cells = itertools.product(opts.pop("nodes"), opts.pop("network"),
                              opts.pop("controller"))
    return [_spec(dict(opts, nodes=nodes, network=network, controller=ctl))
            for nodes, network, ctl in cells]


def _spec(opts: dict) -> JobSpec:
    """The run one cell of an invocation describes.

    Pops the workload, cycle budget, timeout, controller, fault and
    chaos flags from *opts* and keeps every other dest as a config key,
    which :func:`~repro.harness.build` passes to ``SimulationConfig`` by
    name — so a flag that nothing pops and no config field matches is a
    TypeError on the first run.  No ``--backend`` adds no backend key.
    """
    if opts["backend"] is None:
        del opts["backend"]
    app, nodes = opts.pop("app"), opts.pop("nodes")
    category = opts.pop("category") or "H"
    if app:
        workload = make_homogeneous_workload(app, nodes)
    else:
        rng = np.random.default_rng(opts["seed"])
        workload = make_category_workload(category, nodes, rng)
    faults = FaultConfig(
        link_fault_rate=opts.pop("link_faults"),
        router_fault_rate=opts.pop("router_faults"),
        transient_fault_rate=opts.pop("transient_faults"),
        seed=opts.pop("fault_seed"),
    )
    if faults.any_faults:
        opts["faults"] = faults
    script = opts.pop("chaos_script")
    if script:
        opts["chaos"] = _load_chaos_script(script)
    return JobSpec.for_workload(
        workload, opts.pop("cycles"), deadline=opts.pop("timeout"),
        controller=_pop_controller_recipe(opts), config=opts,
    )


def _timing_overhead(plain, timed, cycles: int, repeats: int = 2):
    """Per-phase timing enabled vs plain: ``(plain cycles/s, timed
    cycles/s, overhead in percent)``, best of *repeats* fresh runs per
    side after a warm-up.  *plain* and *timed* are zero-argument
    builders.  The sides alternate, and so does which goes first in a
    repeat, so a host that changes speed mid-check slows both alike."""
    best = [0.0, 0.0]  # plain, timed
    plain().run(min(cycles, 2_000))  # imports, numpy caches
    for repeat in range(repeats):
        for side in (0, 1) if repeat % 2 == 0 else (1, 0):
            sim = (plain, timed)[side]()
            start = time.perf_counter()
            sim.run(cycles)
            best[side] = max(best[side],
                             cycles / (time.perf_counter() - start))
    plain_cps, timed_cps = best
    return plain_cps, timed_cps, (1.0 - timed_cps / plain_cps) * 100.0


def _flit_loss(results) -> int:
    """One ``FLIT LOSS`` line on stderr per result that lost an
    in-network flit; the exit code (1 if any did)."""
    lost = [r.injected_flits - r.ejected_flits - r.in_flight_flits
            for r in results if r is not None and not r.flit_conservation_ok]
    for count in lost:
        print(f"FLIT LOSS: {count} in-network flit(s) unaccounted for",
              file=sys.stderr)
    return 1 if lost else 0


def _run_one(spec: JobSpec, simulator, limit) -> int:
    """Run one simulator and print what it did; exit code."""
    config = simulator.config
    workload = config.workload
    try:
        result = simulator.run(spec.cycles, deadline=spec.deadline)
    except GuardrailError as error:
        print(f"guardrail abort: {error}", file=sys.stderr)
        snapshot = getattr(error, "snapshot", None)
        if snapshot:
            for key, value in snapshot.items():
                print(f"  {key}: {value}", file=sys.stderr)
        return 2
    print(f"workload: {workload.category or 'custom'} "
          f"({', '.join(str(a) for a in workload.app_names[:8])}"
          f"{', ...' if workload.num_nodes > 8 else ''})")
    geometry = f"{config.width}x{config.height}"
    if config.depth > 1:
        geometry += f"x{config.depth}"
    print(f"network:  {config.network} {config.topology} "
          f"{geometry}, controller={spec.controller[0]}")
    print(result.summary())
    if result.guardrails is not None and result.guardrails.active:
        print(f"guardrails: {result.guardrails.summary()}")
    if result.chaos is not None:
        print(f"chaos: {result.chaos.summary()}\n{result.chaos.table()}")
    print(f"system throughput: {result.system_throughput:.2f} insns/cycle   "
          f"weighted by node: {result.throughput_per_node:.3f} IPC/node")
    print(f"admission starvation: {result.mean_port_starvation:.3f}   "
          f"worst-case flit latency: {result.max_net_latency} cycles")
    if result.perf is not None and config.profile:
        print(f"\nprofile: {result.perf.table()}")
    if simulator.tracer is not None:
        print(f"\n{simulator.tracer.summary()}")
    if limit is not None:
        plain_spec = spec.with_config(profile=False, trace=False)
        plain, timed, overhead = _timing_overhead(
            lambda: build(plain_spec),
            lambda: build(plain_spec.with_config(profile=True)),
            spec.cycles,
        )
        print(f"\noverhead check: plain {plain:,.0f} cycles/s, per-phase "
              f"timing enabled {timed:,.0f} cycles/s -> {overhead:+.2f}% "
              f"(limit {limit:g}%)")
        if overhead > limit:
            print("overhead check FAILED", file=sys.stderr)
            return 1
        print("overhead check OK")
    return _flit_loss([result])


def _run_grid(specs, args) -> int:
    """Run *specs* through the harness, one table row each; exit code."""
    from repro.experiments.tables import format_table

    jobs, cache_dir, cache = _harness_settings(args)
    start = time.perf_counter()
    report = run_jobs(specs, jobs=jobs, cache=cache,
                      progress=not args.no_progress, description="run")
    wall = time.perf_counter() - start
    done = [(spec, res) for spec, res in zip(specs, report.results)
            if res is not None]
    print(format_table(
        ["cores", "network", "controller", "IPC/node", "latency", "util",
         "starvation"],
        [(spec.num_nodes, spec.network, spec.controller[0],
          res.throughput_per_node, res.avg_net_latency,
          res.network_utilization, res.mean_starvation)
         for spec, res in done],
    ))
    for spec, res in done:
        if res.chaos is not None:
            print(f"\nchaos {spec.label()}: {res.chaos.summary()}\n"
                  f"{res.chaos.table()}")
    print(f"\nharness: {report.total} jobs, {report.cache_hits} cache hits, "
          f"{report.executed} executed, wall {wall:.2f}s, workers {jobs}")
    print("backend: " + _split((r.backend, r.refusal) for r in report.records
                               if not r.cached), file=sys.stderr)
    if cache is not None:
        print(f"cache: {cache_dir} ({len(cache)} entries)")
    failed = [r for r in report.records if r.error]
    for record in failed:
        print(f"guardrail abort: {record.label}: {record.error}",
              file=sys.stderr)
    return 2 if failed else _flit_loss(report.results)


def _split(picks) -> str:
    """``N native, M numpy (k <refusal>; ...)`` of (backend, refusal)s."""
    counts = collections.Counter(picks)
    native = counts.pop(("native", None), 0)
    why = "; ".join(f"{n} {r}" for (_, r), n in counts.most_common() if r)
    return (f"{native} native, {sum(counts.values())} numpy"
            + (f" ({why})" if why else ""))


def figure_main(argv=None) -> int:
    from repro.experiments import figures

    args = build_figure_parser().parse_args(argv)
    try:
        chosen = figures.select(args.names)
        if not args.scale > 0:
            raise ValueError(f"--scale must be positive, got {args.scale:g}")
        if args.markdown is not None:
            with open(args.markdown, encoding="utf-8") as handle:
                markdown = handle.read()
            # A missing section fails here, before any run.
            figures.rewrite_markdown(markdown, {f.label: "" for f in chosen})
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs, _, cache = _harness_settings(args)
    harness = Harness(jobs, cache, progress=not args.no_progress)
    start = time.perf_counter()
    reports, failed = {}, []
    for fig in chosen:
        text, misses = fig.report(fig.run(args.scale, harness))
        print(text, flush=True)
        reports[fig.label] = text
        failed += [(fig.name, claim) for claim in misses]
    if args.markdown is not None:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(figures.rewrite_markdown(markdown, reports))
    print(f"figure: {len(chosen)} reports, {harness.requested} jobs, "
          f"{harness.distinct} distinct specs, {harness.cache_hits} cache "
          f"hits, {harness.executed} executed, wall "
          f"{time.perf_counter() - start:.1f}s, workers {jobs}",
          file=sys.stderr)
    picks = [(r.backend, r.refusal) for r in harness.records if not r.cached]
    print(f"backend: specs {_split(picks)}", file=sys.stderr)
    for name, (quantity, paper, measured, _) in failed:
        print(f"FAILED {name}: {quantity} (paper {paper}, measured "
              f"{measured})", file=sys.stderr)
    return 1 if failed else 0


def _list_registries(args) -> None:
    """The registry tables ``--list-controllers``/``--list-topologies``
    ask for, a blank line between."""
    if args.list_controllers:
        width = max(len(name) for name in CONTROLLERS)
        rwidth = max(len(e.recipe) for e in CONTROLLERS.values())
        print(f"{'controller':<{width}}  {'recipe':<{rwidth}}  description")
        for entry in CONTROLLERS.values():
            print(f"{entry.name:<{width}}  {entry.recipe:<{rwidth}}  "
                  f"{entry.description}")
    if args.list_topologies:
        if args.list_controllers:
            print()
        width = max(len("topology"), *(len(name) for name in TOPOLOGIES))
        print(f"{'topology':<{width}}  description")
        for entry in TOPOLOGIES.values():
            print(f"{entry.name:<{width}}  {entry.description}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "figure":
        return figure_main(argv[1:])
    # ``run`` is an explicit alias for the default command.
    if argv and argv[0] == "run":
        argv = argv[1:]
    args = build_parser().parse_args(argv)
    if args.list_controllers or args.list_topologies:
        _list_registries(args)
        return 0
    limit = args.overhead_check
    try:
        specs = _specs(args)
        grid = (len(specs) > 1 or args.jobs is not None
                or args.cache_dir is not None)
        if grid:
            if limit is not None:
                raise ValueError("--overhead-check times one run, not a grid")
            for spec in specs:  # a bad cell fails here, before any job
                build(spec)
        else:
            spec = specs[0].with_config(backend=args.backend or "numpy")
            simulator = build(spec)
    except (ValueError, NativeUnsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _run_grid(specs, args) if grid else _run_one(spec, simulator, limit)


if __name__ == "__main__":
    sys.exit(main())
