"""Command-line front end: run one NoC simulation and print its summary.

Examples::

    python -m repro --category H --nodes 16 --cycles 20000
    python -m repro --category HM --nodes 64 --controller central
    python -m repro --app mcf --nodes 256 --network buffered \
        --locality exponential --locality-param 1.0

The ``sweep`` subcommand runs a multi-point scaling sweep through
:mod:`repro.harness` — parallel workers and a content-addressed result
cache, so re-running only executes changed points::

    python -m repro sweep --sizes 16,64,256 --jobs 4 \
        --cache-dir ~/.cache/repro-sweeps

The ``figure`` subcommand regenerates the paper's reports from the
figure registry (:mod:`repro.experiments.figures`) through the same
harness flags, exits 1 naming every claim that does not hold, and
with ``--markdown`` rewrites their blocks in EXPERIMENTS.md.  Neither
``sweep`` nor ``figure`` names a backend (stderr gets the split)::

    python -m repro figure fig3a fig3b --scale 0.5 --jobs 2
    python -m repro figure --jobs 2 --markdown EXPERIMENTS.md

The ``profile`` subcommand runs the observability smoke configuration
with ``--profile`` on and prints what a single run prints for it; with
``--overhead-check`` it also times per-phase timing enabled vs plain::

    python -m repro profile --nodes 64 --cycles 20000 --trace
    python -m repro profile --overhead-check 5    # CI gate

Single runs take ``--profile`` (per-phase timing on the result) and
``--trace`` (sampled per-flit event tracing)::

    python -m repro --category H --nodes 16 --profile --trace

A flag that sets a ``SimulationConfig`` field is declared from that
field's metadata (:func:`_config_flags`).  Every command describes its
runs as :class:`~repro.harness.JobSpec` values and builds them with
:func:`repro.harness.build`, the simulator's one construction site;
bad input exits 2 with one ``error:`` line before a cycle runs.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
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
from repro.experiments.sweeps import (
    NETWORK_VARIANTS,
    SCALING_NETWORKS,
    Harness,
    scaling_specs,
)
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

__all__ = ["main", "build_parser", "build_sweep_parser",
           "build_figure_parser", "build_profile_parser",
           "build_chaos_parser", "chaos_main", "figure_main",
           "profile_main", "sweep_main"]

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(SimulationConfig)}


def _config_flags(parser, *names: str, **defaults) -> None:
    """Declare the flags of the ``SimulationConfig`` fields *names* from
    their metadata: type from the default, ``store_true`` for a bool,
    the field's own default unless *defaults* overrides it."""
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
                flag, dest=name, default=default, choices=choices,
                type=None if choices else type(default), help=meta["help"],
            )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common_flags(parser, nodes: int, cycles: int, category="H", *,
                      controller=True, category_group=None) -> None:
    """Declare the flags every single-run subcommand takes; ``--category``
    lands in *category_group* when the parser pairs it with an exclusive
    alternative."""
    (parser if category_group is None else category_group).add_argument(
        "--category", choices=WORKLOAD_CATEGORIES, default=category,
        help="random workload category (default: H)",
    )
    parser.add_argument("--nodes", type=int, default=nodes,
                        help=f"node count (square mesh; default {nodes})")
    parser.add_argument("--cycles", type=_positive_int, default=cycles)
    _config_flags(parser, "seed", "epoch", "network", "topology",
                  seed=1, epoch=2_000)
    if controller:
        parser.add_argument("--controller", choices=CONTROLLER_NAMES,
                            default="none")
        parser.add_argument("--static-rate", type=float, default=0.5,
                            help="rate for --controller static")


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
    _add_common_flags(parser, 16, 20_000, None, category_group=workload)
    _config_flags(parser, "backend", "depth", "chiplet_tile",
                  "express_stride")
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
    _config_flags(parser.add_argument_group("observability"),
                  "profile", "trace", "trace_sample", "trace_capacity")
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
             "examples/chaos_demo.json and 'python -m repro chaos'",
    )
    return parser


#: The ``SimulationConfig`` fields ``sweep`` takes as flags.
_SWEEP_CONFIG = ("seed", "epoch", "topology", "locality", "locality_param")


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Scaling sweep through repro.harness: every "
        "(size x network) point as one cached, parallelizable job.",
    )
    parser.add_argument(
        "--sizes", default="16,64",
        help="comma-separated node counts (square meshes; default 16,64)",
    )
    parser.add_argument(
        "--networks", default=",".join(SCALING_NETWORKS),
        help="comma-separated variants from "
        f"{{{', '.join(NETWORK_VARIANTS)}}}",
    )
    parser.add_argument("--cycles", type=_positive_int, default=8_000,
                        help="cycle budget per point (default 8000)")
    parser.add_argument("--category", choices=WORKLOAD_CATEGORIES,
                        default="H", help="workload category (default H)")
    _config_flags(parser, *_SWEEP_CONFIG, seed=2, epoch=1_200,
                  locality="exponential")
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
    """Declare the harness flags ``sweep`` and ``figure`` share."""
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


def build_chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run one chaos campaign and report per-event recovery, "
        "availability, and flit-loss accounting.  Exits nonzero if any "
        "in-network flit was lost (the CI chaos smoke gate).",
    )
    parser.add_argument(
        "--script", default="examples/chaos_demo.json", metavar="PATH",
        help="JSON chaos campaign (default examples/chaos_demo.json)",
    )
    _add_common_flags(parser, 16, 5_000)
    parser.add_argument(
        "--no-invariants", dest="check_invariants", action="store_false",
        help="skip the per-cycle losslessness invariant checks "
             "(they are ON by default here, unlike plain runs)",
    )
    # ON by default here, so a wedged campaign trips instead of hanging.
    _config_flags(parser, "watchdog_window", watchdog_window=2_000)
    return parser


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Observability smoke run: per-phase wall-clock "
        "breakdown and throughput counters, optionally gated on the cost "
        "of per-phase timing.",
    )
    _add_common_flags(parser, 64, 20_000, controller=False)
    _config_flags(parser, "trace", "trace_sample")
    parser.add_argument(
        "--overhead-check", type=float, default=None, metavar="PCT",
        help="also time per-phase timing enabled vs a plain run and "
             "exit 1 if it costs more than PCT percent",
    )
    parser.add_argument(
        "--repeats", type=_positive_int, default=2, metavar="N",
        help="timing repetitions per side of the overhead check "
             "(best-of; default 2)",
    )
    return parser


def _load_chaos_script(path):
    """The campaign in *path*; ``ValueError`` saying why it cannot load."""
    from repro.chaos import ChaosConfig

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return ChaosConfig.from_json(handle.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot load chaos script {path!r}: {exc}") from exc


def _pop_controller_recipe(opts: dict) -> tuple:
    """Pop ``--controller`` (``none`` on a parser without it) and every
    recipe flag the parser defines; return the ``(name, *args)`` recipe
    of the chosen entry."""
    name = opts.pop("controller", "none")
    flags = {
        arg.dest: opts.pop(arg.dest)
        for entry in CONTROLLERS.values()
        for arg in entry.args
        if arg.dest in opts
    }
    chosen = CONTROLLERS[name].args
    return (name, *(flags[arg.dest] for arg in chosen if arg.dest in flags))


def _spec(opts: dict) -> JobSpec:
    """The run one ``run``/``chaos``/``profile`` invocation describes.

    Pops the workload, cycle budget, timeout, controller, fault and
    chaos flags from *opts* and keeps every other dest as a config key,
    which :func:`~repro.harness.build` passes to ``SimulationConfig`` by
    name — so a flag that nothing pops and no config field matches is a
    TypeError on the first run.  No ``--backend`` flag means numpy.
    """
    opts.setdefault("backend", "numpy")
    app, nodes = opts.pop("app", None), opts.pop("nodes")
    category = opts.pop("category") or "H"
    if app:
        workload = make_homogeneous_workload(app, nodes)
    else:
        rng = np.random.default_rng(opts["seed"])
        workload = make_category_workload(category, nodes, rng)
    if "fault_seed" in opts:
        faults = FaultConfig(
            link_fault_rate=opts.pop("link_faults"),
            router_fault_rate=opts.pop("router_faults"),
            transient_fault_rate=opts.pop("transient_faults"),
            seed=opts.pop("fault_seed"),
        )
        if faults.any_faults:
            opts["faults"] = faults
    script = opts.pop("chaos_script", None)
    if script:
        opts["chaos"] = _load_chaos_script(script)
    return JobSpec.for_workload(
        workload, opts.pop("cycles"), deadline=opts.pop("timeout", None),
        controller=_pop_controller_recipe(opts), config=opts,
    )


def _build(opts: dict):
    """``(spec, simulator)`` for *opts* (:func:`_spec`), or ``None`` after
    reporting invalid input in one line on stderr (the caller exits 2)."""
    try:
        spec = _spec(opts)
        return spec, build(spec)
    except (ValueError, NativeUnsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def chaos_main(argv=None) -> int:
    opts = vars(build_chaos_parser().parse_args(argv))
    script = opts.pop("script")
    built = _build(dict(opts, chaos_script=script))
    if built is None:
        return 2
    spec, simulator = built
    config = simulator.config
    try:
        result = simulator.run(spec.cycles)
    except GuardrailError as error:
        print(f"guardrail abort: {error}", file=sys.stderr)
        return 2
    report = result.chaos
    print(f"chaos campaign: {script} on {config.workload.category}/"
          f"{config.num_nodes}n/{config.network}, seed {config.seed}, "
          f"{spec.cycles} cycles")
    for ev in report.events:
        target = ""
        if ev.kind.startswith("link"):
            target = f" ({ev.node}:{ev.port})"
        elif ev.kind.startswith("router"):
            target = f" ({ev.node})"
        if ev.skipped:
            status = f"skipped: {ev.reason}"
        elif ev.applied_cycle < 0:
            status = "never applied (beyond horizon?)"
        else:
            status = f"applied @{ev.applied_cycle}"
            if ev.reason:
                status += f" ({ev.reason})"
            if ev.recovery_cycles >= 0:
                status += f", recovered in {ev.recovery_cycles}cy"
        print(f"  @{ev.cycle:>6} {ev.kind:<16}{target:<9} {status}")
    print(f"report: {report.summary()}")
    print(f"flits: {result.injected_flits} injected, "
          f"{result.ejected_flits} ejected, "
          f"{result.in_flight_flits} in flight, "
          f"{report.orphaned_flits} orphaned pre-injection packet(s)")
    print(result.summary())
    if not result.flit_conservation_ok:
        lost = (result.injected_flits - result.ejected_flits
                - result.in_flight_flits)
        print(f"FLIT LOSS: {lost} in-network flit(s) unaccounted for",
              file=sys.stderr)
        return 1
    print("flit conservation OK (zero in-network loss)")
    return 0


def _print_observability(simulator, result) -> None:
    """What ``--profile`` and ``--trace`` add to a run's output."""
    if result.perf is not None and simulator.config.profile:
        print(f"\nprofile: {result.perf.table()}")
    if simulator.tracer is not None:
        print(f"\n{simulator.tracer.summary()}")


def _timing_overhead(plain, timed, cycles: int, repeats: int):
    """Per-phase timing enabled vs plain: ``(plain cycles/s, timed
    cycles/s, overhead in percent)``, best of *repeats* fresh runs per
    side after a warm-up.  *plain* and *timed* are zero-argument
    builders; a plain run takes the simulator's uninstrumented loop,
    ``profile=True`` adds a PhaseTimer lap around every phase.  The
    sides alternate, and so does which goes first in a repeat, so a
    host that changes speed mid-check slows both alike."""
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


def profile_main(argv=None) -> int:
    opts = vars(build_profile_parser().parse_args(argv))
    limit, repeats = opts.pop("overhead_check"), opts.pop("repeats")
    built = _build(dict(opts, profile=True))
    if built is None:
        return 2
    spec, simulator = built
    result = simulator.run(spec.cycles)
    config = simulator.config
    print(f"{config.num_nodes} nodes, {spec.cycles} cycles, "
          f"{config.workload.category}/{config.network}/{config.topology}, "
          f"seed {config.seed}")
    _print_observability(simulator, result)
    if limit is not None:
        plain_spec = spec.with_config(profile=False, trace=False)
        plain, timed, overhead = _timing_overhead(
            lambda: build(plain_spec),
            lambda: build(plain_spec.with_config(profile=True)),
            spec.cycles, repeats,
        )
        print(f"\noverhead check: plain {plain:,.0f} cycles/s, per-phase "
              f"timing enabled {timed:,.0f} cycles/s -> {overhead:+.2f}% "
              f"(limit {limit:g}%)")
        if overhead > limit:
            print("overhead check FAILED", file=sys.stderr)
            return 1
        print("overhead check OK")
    return 0


def sweep_main(argv=None) -> int:
    args = build_sweep_parser().parse_args(argv)
    try:
        sizes = tuple(int(s) for s in args.sizes.split(",") if s)
        for size in sizes:  # the topology's geometry check, before any job
            SimulationConfig(make_homogeneous_workload("mcf", size),
                             topology=args.topology)
    except ValueError as exc:
        print(f"invalid --sizes {args.sizes!r}: {exc}", file=sys.stderr)
        return 2
    networks = tuple(n for n in args.networks.split(",") if n)
    if not sizes or not networks or set(networks) - set(NETWORK_VARIANTS):
        print(f"invalid --sizes/--networks ({args.sizes!r}, "
              f"{args.networks!r})", file=sys.stderr)
        return 2
    grid = scaling_specs(
        sizes, lambda n: args.cycles, category=args.category,
        networks=networks,
        **{name: getattr(args, name) for name in _SWEEP_CONFIG},
    )
    try:
        build(grid[0][2])  # a bad configuration fails here, before any job
    except (ValueError, NativeUnsupported) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    jobs, cache_dir, cache = _harness_settings(args)

    start = time.perf_counter()
    report = run_jobs(
        [spec for _, _, spec in grid], jobs=jobs, cache=cache,
        progress=not args.no_progress, description="scaling",
    )
    wall = time.perf_counter() - start

    from repro.experiments.tables import format_table
    for name in networks:
        rows = [
            (size, res.throughput_per_node, res.avg_net_latency,
             res.network_utilization, res.mean_starvation)
            for (variant, size, _), res in zip(grid, report.results)
            if variant == name and res is not None
        ]
        print(f"\n{name} ({args.category}, {args.locality}, "
              f"epoch {args.epoch}):")
        print(format_table(
            ["cores", "IPC/node", "latency", "util", "starvation"], rows
        ))
    print(f"\nharness: {report.total} jobs, {report.cache_hits} cache hits, "
          f"{report.executed} executed, wall {wall:.2f}s, workers {jobs}")
    print("backend: " + _split((r.backend, r.refusal) for r in report.records
                               if not r.cached), file=sys.stderr)
    if cache is not None:
        print(f"cache: {cache_dir} ({len(cache)} entries)")
    return 0


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


def _list_controllers() -> None:
    width = max(len(name) for name in CONTROLLERS)
    rwidth = max(len(e.recipe) for e in CONTROLLERS.values())
    print(f"{'controller':<{width}}  {'recipe':<{rwidth}}  description")
    for entry in CONTROLLERS.values():
        print(f"{entry.name:<{width}}  {entry.recipe:<{rwidth}}  "
              f"{entry.description}")


def _list_topologies() -> None:
    width = max(len("topology"), *(len(name) for name in TOPOLOGIES))
    print(f"{'topology':<{width}}  description")
    for entry in TOPOLOGIES.values():
        print(f"{entry.name:<{width}}  {entry.description}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "figure":
        return figure_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    # ``run`` is an explicit alias for the default single-run command.
    if argv and argv[0] == "run":
        argv = argv[1:]
    opts = vars(build_parser().parse_args(argv))
    list_controllers = opts.pop("list_controllers")
    list_topologies = opts.pop("list_topologies")
    if list_controllers or list_topologies:
        if list_controllers:
            _list_controllers()
        if list_topologies:
            if list_controllers:
                print()
            _list_topologies()
        return 0

    controller = opts["controller"]
    built = _build(opts)
    if built is None:
        return 2
    spec, simulator = built
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
          f"{geometry}, controller={controller}")
    print(result.summary())
    if result.guardrails is not None and result.guardrails.active:
        print(f"guardrails: {result.guardrails.summary()}")
    if result.chaos is not None:
        print(f"chaos: {result.chaos.summary()}")
    print(f"system throughput: {result.system_throughput:.2f} insns/cycle   "
          f"weighted by node: {result.throughput_per_node:.3f} IPC/node")
    print(f"admission starvation: {result.mean_port_starvation:.3f}   "
          f"worst-case flit latency: {result.max_net_latency} cycles")
    _print_observability(simulator, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
