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

The ``profile`` subcommand runs the observability smoke configuration
with ``--profile`` on and prints what a single run prints for it; with
``--overhead-check`` it also times per-phase timing enabled vs plain::

    python -m repro profile --nodes 64 --cycles 20000 --trace
    python -m repro profile --overhead-check 5    # CI gate

Single runs take ``--profile`` (per-phase timing on the result) and
``--trace`` (sampled per-flit event tracing)::

    python -m repro --category H --nodes 16 --profile --trace
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import (
    SimulationConfig,
    Simulator,
    WORKLOAD_CATEGORIES,
    make_category_workload,
    make_homogeneous_workload,
)
from repro.config import BACKENDS
from repro.control.hierarchical import COORDINATION_MODES
from repro.control.registry import (
    CONTROLLER_NAMES,
    CONTROLLERS,
    build_controller,
)
from repro.experiments.sweeps import NETWORK_VARIANTS, scaling_sweep
from repro.guardrails import FaultConfig, GuardrailError
from repro.network import NETWORK_NAMES
from repro.topology.registry import TOPOLOGIES, TOPOLOGY_NAMES
from repro.traffic.locality import LOCALITY_NAMES

__all__ = ["main", "build_parser", "build_sweep_parser",
           "build_profile_parser", "build_chaos_parser", "chaos_main",
           "profile_main", "sweep_main"]


#: Per-subcommand defaults of the flags ``run``, ``chaos`` and
#: ``profile`` share: (nodes, cycles, category, takes a controller).
_COMMON_DEFAULTS = {
    "run": (16, 20_000, None, True),
    "chaos": (16, 5_000, "H", True),
    "profile": (64, 20_000, "H", False),
}


def _add_common_flags(parser, command: str, category_group=None) -> None:
    """Declare the flags every single-run subcommand takes, with
    *command*'s defaults; ``--category`` lands in *category_group* when
    the parser pairs it with an exclusive alternative."""
    nodes, cycles, category, controller = _COMMON_DEFAULTS[command]
    (parser if category_group is None else category_group).add_argument(
        "--category", choices=WORKLOAD_CATEGORIES, default=category,
        help="random workload category (default: H)",
    )
    parser.add_argument("--nodes", type=int, default=nodes,
                        help=f"node count (square mesh; default {nodes})")
    parser.add_argument("--cycles", type=int, default=cycles)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--epoch", type=int, default=2_000,
                        help="controller/measurement period T")
    parser.add_argument("--network", choices=NETWORK_NAMES, default="bless")
    parser.add_argument("--topology", choices=TOPOLOGY_NAMES,
                        default="mesh")
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
    _add_common_flags(parser, "run", category_group=workload)
    parser.add_argument(
        "--backend", choices=BACKENDS, default="numpy",
        help="hot-path backend: pure-numpy reference or compiled C kernels "
             "(bit-identical; requires a C compiler on first use)",
    )
    parser.add_argument(
        "--depth", type=int, default=0,
        help="3D topologies: z dimension (0 = infer a cube)",
    )
    parser.add_argument(
        "--chiplet-tile", type=int, default=4, metavar="EDGE",
        help="chiplet topology: cluster edge length (default 4)",
    )
    parser.add_argument(
        "--express-stride", type=int, default=4, metavar="HOPS",
        help="express topology: skip-link span (default 4)",
    )
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
    parser.add_argument("--locality", choices=LOCALITY_NAMES,
                        default="uniform")
    parser.add_argument("--locality-param", type=float, default=1.0)
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--profile", action="store_true",
        help="time each simulated phase and print the breakdown",
    )
    obs.add_argument(
        "--trace", action="store_true",
        help="record sampled per-flit inject/hop/deflect/eject events",
    )
    obs.add_argument(
        "--trace-sample", type=float, default=1 / 16, metavar="FRACTION",
        help="fraction of packets traced (default 1/16)",
    )
    obs.add_argument(
        "--trace-capacity", type=int, default=65_536, metavar="EVENTS",
        help="trace ring-buffer size; oldest events overwritten "
             "(default 65536)",
    )
    guard = parser.add_argument_group("guardrails")
    guard.add_argument(
        "--check-invariants", action="store_true",
        help="verify the no-drop/eject-width/age-order invariants every cycle",
    )
    guard.add_argument(
        "--watchdog", dest="watchdog_window", type=int, default=0,
        metavar="WINDOW",
        help="fail fast after WINDOW cycles without ejection progress "
             "(0 = off)",
    )
    guard.add_argument(
        "--max-flit-age", type=int, default=0, metavar="CYCLES",
        help="fail fast when an in-flight flit exceeds this age (0 = off)",
    )
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
        "--networks", default="bless,bless-throttling,buffered",
        help="comma-separated variants from "
        f"{{{', '.join(NETWORK_VARIANTS)}}}",
    )
    parser.add_argument("--cycles", type=int, default=8_000,
                        help="cycle budget per point (default 8000)")
    parser.add_argument("--category", choices=WORKLOAD_CATEGORIES,
                        default="H", help="workload category (default H)")
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--epoch", type=int, default=1_200)
    parser.add_argument("--topology", choices=TOPOLOGY_NAMES,
                        default="mesh")
    parser.add_argument("--locality", choices=LOCALITY_NAMES,
                        default="exponential")
    parser.add_argument("--locality-param", type=float, default=1.0)
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
    return parser


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
    _add_common_flags(parser, "chaos")
    parser.add_argument(
        "--no-invariants", dest="check_invariants", action="store_false",
        help="skip the per-cycle losslessness invariant checks "
             "(they are ON by default here, unlike plain runs)",
    )
    parser.add_argument(
        "--watchdog", dest="watchdog_window", type=int, default=2_000,
        metavar="WINDOW",
        help="progress-watchdog window in cycles, ON by default here "
             "so a wedged campaign trips instead of hanging (0 = off)",
    )
    return parser


def _load_chaos_script(path):
    """The campaign in *path*, or ``None`` after reporting why not."""
    from repro.chaos import ChaosConfig

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return ChaosConfig.from_json(handle.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot load chaos script {path!r}: {exc}", file=sys.stderr)
        return None


def _pop_controller_recipe(opts: dict) -> tuple:
    """Pop ``--controller`` and every recipe flag the parser defines;
    return the ``(name, *args)`` recipe of the chosen entry."""
    name = opts.pop("controller")
    flags = {
        arg.dest: opts.pop(arg.dest)
        for entry in CONTROLLERS.values()
        for arg in entry.args
        if arg.dest in opts
    }
    chosen = CONTROLLERS[name].args
    return (name, *(flags[arg.dest] for arg in chosen if arg.dest in flags))


def chaos_main(argv=None) -> int:
    # Like main(): dests are popped where they are consumed and the rest
    # go to SimulationConfig by name.
    opts = vars(build_chaos_parser().parse_args(argv))
    script = opts.pop("script")
    chaos = _load_chaos_script(script)
    if chaos is None:
        return 2
    category, nodes = opts.pop("category"), opts.pop("nodes")
    cycles = opts.pop("cycles")
    rng = np.random.default_rng(opts["seed"])
    workload = make_category_workload(category, nodes, rng)
    controller = build_controller(
        _pop_controller_recipe(opts), epoch=opts["epoch"]
    )
    config = SimulationConfig(
        workload, chaos=chaos, controller=controller, **opts
    )
    simulator = Simulator(config)
    try:
        result = simulator.run(cycles)
    except GuardrailError as error:
        print(f"guardrail abort: {error}", file=sys.stderr)
        return 2
    report = result.chaos
    print(f"chaos campaign: {script} on {category}/"
          f"{nodes}n/{config.network}, seed {config.seed}, "
          f"{cycles} cycles")
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Observability smoke run: per-phase wall-clock "
        "breakdown and throughput counters, optionally gated on the cost "
        "of per-phase timing.",
    )
    _add_common_flags(parser, "profile")
    parser.add_argument(
        "--trace", action="store_true",
        help="also enable flit tracing and print its summary",
    )
    parser.add_argument("--trace-sample", type=float, default=1 / 16,
                        metavar="FRACTION")
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


def _print_observability(simulator, result) -> None:
    """What ``--profile`` and ``--trace`` add to a run's output."""
    if result.perf is not None and simulator.config.profile:
        print(f"\nprofile: {result.perf.table()}")
    if simulator.tracer is not None:
        print(f"\n{simulator.tracer.summary()}")


def profile_main(argv=None) -> int:
    from repro.observability.profile import build_simulator, timing_overhead

    opts = vars(build_profile_parser().parse_args(argv))
    cycles, limit, repeats = (
        opts.pop("cycles"), opts.pop("overhead_check"), opts.pop("repeats")
    )
    trace, trace_sample = opts.pop("trace"), opts.pop("trace_sample")
    simulator = build_simulator(
        **opts, profile=True, trace=trace, trace_sample=trace_sample
    )
    result = simulator.run(cycles)
    print(f"{opts['nodes']} nodes, {cycles} cycles, {opts['category']}/"
          f"{opts['network']}/{opts['topology']}, seed {opts['seed']}")
    _print_observability(simulator, result)
    if limit is not None:
        plain, timed, overhead = timing_overhead(cycles, repeats, **opts)
        print(f"\noverhead check: plain {plain:,.0f} cycles/s, per-phase "
              f"timing enabled {timed:,.0f} cycles/s -> {overhead:+.2f}% "
              f"(limit {limit:g}%)")
        if overhead > limit:
            print("overhead check FAILED", file=sys.stderr)
            return 1
        print("overhead check OK")
    return 0


def sweep_main(argv=None) -> int:
    from repro.harness import ResultCache, default_jobs, resolve_jobs

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
    jobs = default_jobs() if args.jobs is None else resolve_jobs(args.jobs)
    import os
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
    cache = ResultCache(cache_dir) if cache_dir else None

    import time
    start = time.perf_counter()
    data = scaling_sweep(
        sizes,
        lambda n: args.cycles,
        category=args.category,
        networks=networks,
        locality=args.locality,
        locality_param=args.locality_param,
        epoch=args.epoch,
        seed=args.seed,
        topology=args.topology,
        jobs=jobs,
        cache=cache,
        progress=not args.no_progress,
    )
    wall = time.perf_counter() - start

    from repro.experiments.tables import format_table
    for name in networks:
        rows = [
            (size, res.throughput_per_node, res.avg_net_latency,
             res.network_utilization, res.mean_starvation)
            for size, res in data[name]
            if res is not None
        ]
        print(f"\n{name} ({args.category}, {args.locality}, "
              f"epoch {args.epoch}):")
        print(format_table(
            ["cores", "IPC/node", "latency", "util", "starvation"], rows
        ))
    total = len(sizes) * len(networks)
    hits = cache.hits if cache is not None else 0
    print(f"\nharness: {total} jobs, {hits} cache hits, "
          f"{total - hits} executed, wall {wall:.2f}s, workers {jobs}")
    if cache is not None:
        print(f"cache: {cache_dir} ({len(cache)} entries)")
    return 0


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
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    # ``run`` is an explicit alias for the default single-run command.
    if argv and argv[0] == "run":
        argv = argv[1:]
    # Each dest is popped where main() consumes it; what is left goes to
    # SimulationConfig by name, so a flag that nothing consumes and no
    # config field matches is a TypeError on the first run.
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

    app, category, nodes = (
        opts.pop("app"), opts.pop("category"), opts.pop("nodes")
    )
    if app:
        workload = make_homogeneous_workload(app, nodes)
    else:
        rng = np.random.default_rng(opts["seed"])
        workload = make_category_workload(category or "H", nodes, rng)

    faults = FaultConfig(
        link_fault_rate=opts.pop("link_faults"),
        router_fault_rate=opts.pop("router_faults"),
        transient_fault_rate=opts.pop("transient_faults"),
        seed=opts.pop("fault_seed"),
    )
    if faults.any_faults:
        opts["faults"] = faults
    chaos_script = opts.pop("chaos_script")
    if chaos_script:
        opts["chaos"] = _load_chaos_script(chaos_script)
        if opts["chaos"] is None:
            return 2
    cycles, timeout = opts.pop("cycles"), opts.pop("timeout")
    recipe = _pop_controller_recipe(opts)
    controller = build_controller(recipe, epoch=opts["epoch"])
    config = SimulationConfig(workload, controller=controller, **opts)
    simulator = Simulator(config)

    try:
        result = simulator.run(cycles, deadline=timeout)
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
          f"{geometry}, controller={recipe[0]}")
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
