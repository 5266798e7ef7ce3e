"""One perf ledger for the simulator: end to end and layer by layer.

Two ways to run it, both from the repository root::

    # one round of one workload (what a driver calls; last line is JSON)
    python3 benchmarks/perf/bench.py --workload native_mesh64 --seed 1 \\
        --seconds 10 --trace 0

    # the ledger: every workload, 7 untraced rounds + 1 traced round
    # each in fresh interpreters, medians and quartiles, a manifest
    python3 benchmarks/perf/bench.py [--seed 1] [--rounds 7] \\
        [--workload W] [--selfcheck] [--repin]

A **round** is one fresh interpreter: it sets the workload up, runs
fixed-size *passes* of it for ``--seconds`` (closed loop, one client),
checks every simulated result, and reports the fastest pass.  With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced passes and prints
the per-layer metrics.  ``setup_s`` is measured by starting fresh
interpreters that only set up.  README.md has the protocol, the
workloads and how to read the trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

#: fallback for ``setup_s`` when no setup probe could run; misses the
#: interpreter's own start-up, which the probes include
_PROCESS_START = time.monotonic()

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
PINS_PATH = HERE / "pins.json"

#: simulated statistics every round reports beside the bounded metrics;
#: for one seed they must repeat exactly (``--selfcheck`` compares them)
EXACT = ("failure_share", "sim_ipc_per_node", "sim_avg_net_latency", "digest")

MIN_PASSES = {0: 3, 1: 2}  # untraced / traced round
SETUP_PROBES = 3


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def need_repro() -> None:
    """Put the simulator on the path, or leave with a message.

    The benchmark measures ``src/repro`` from outside; in a directory
    that holds only the benchmark there is nothing to measure.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"bench: no simulator at {ROOT / 'src' / 'repro'}; run from a "
            "checkout of the whole repository\n"
        )
        raise SystemExit(2)
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def fastest_wall(records) -> float:
    """The pass assembled from the fastest instance of each of its steps.

    Step *k* is identical work in every pass.  This host moves between a
    fast state and one ~30 % slower within fractions of a second, and
    timing noise only ever adds, so the fastest of several short
    identical steps estimates the uncontended cost; a median lands in
    whichever state the round met (README.md, "Noise").
    """
    whole = [r.step_s for r in records]
    steps = max(len(s) for s in whole)
    whole = [s for s in whole if len(s) == steps]  # a failed pass stops early
    return sum(min(column) for column in zip(*whole))


def own_command(args, workload: str, *more) -> list:
    """This script in a fresh interpreter, on *workload* with our inputs."""
    return [
        sys.executable, str(HERE / "bench.py"), "--workload", workload,
        "--seed", str(args.seed), "--scale", repr(args.scale), *more,
    ]


def format_metric(name: str, entry: dict) -> str:
    value = entry["value"]
    text = f"{value:.0f}" if entry["unit"] == "count" else f"{value:.6g}"
    return f"{name:<36} {text:>14} {entry['unit']}"


# ----------------------------------------------------------------------
# One round (fresh interpreter, one workload)
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child.

    ``ru_maxrss`` is KiB on Linux.  The children figure is the maximum
    over the pool workers reaped so far, not their sum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_probe(args) -> int:
    """Set up exactly as a round does, print when ready, clean up."""
    need_repro()
    from perf_workloads import make_workload

    workload = make_workload(args.workload, args.seed, args.scale)
    workload.setup()
    ctx = workload.prepare()
    print(repr(time.monotonic()), flush=True)
    workload.release(ctx)
    workload.close()
    return 0


def measure_setup(args) -> list:
    """``setup_s`` samples: process start to ready, in fresh interpreters.

    ``time.monotonic`` is one clock for every process on the host, so
    the probe's ready time minus our spawn time covers interpreter
    start, imports, kernel load, input build, topology and
    ``Simulator(...)`` (for ``sweep_warm``: populating the cache).
    """
    samples = []
    command = own_command(args, args.workload, "--setup-probe")
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=170, check=False
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            continue
        samples.append(float(proc.stdout.split()[-1]) - spawned)
    return samples


def run_round(args) -> int:
    need_repro()
    from perf_layers import layer_metrics
    from perf_workloads import make_workload, run_pass

    spec = load_spec()
    trace = int(args.trace)
    workload = make_workload(args.workload, args.seed, args.scale)
    try:
        workload.setup()
    except Exception:
        # Reported through the passes, which now fail op by op.
        traceback.print_exc()
    own_setup_s = time.monotonic() - _PROCESS_START

    kinds = workload.trace_kinds if trace else ("plain",)
    records = {kind: [] for kind in kinds}
    started = time.perf_counter()
    while True:
        for kind in kinds:
            raw = kind == "traced" and not records[kind]
            records[kind].append(run_pass(workload, kind, raw_spans=raw))
        done = len(records[kinds[0]])
        elapsed = time.perf_counter() - started
        failing = any(r.failures for rs in records.values() for r in rs)
        if done >= MIN_PASSES[trace] and (
            failing or elapsed + elapsed / done > args.seconds
        ):
            break
    rss_mb = peak_rss_mb()

    every = [r for rs in records.values() for r in rs]
    attempted = sum(r.attempted for r in every)
    failures = [line for r in every for line in r.failures]
    reference = records[kinds[0]][0]
    pin_ok = True
    if args.seed == 1 and args.scale == 1.0 and not args.no_pin:
        pin_ok = load_pins().get(workload.name) == reference.digest
        if not pin_ok:
            failures = [
                f"{workload.name}: seed-1 digest {reference.digest} is not "
                "the pinned one (pins.json; --repin prints new ones)"
            ] * attempted
    walls = {kind: fastest_wall(rs) for kind, rs in records.items()}
    best = {
        kind: min(rs, key=lambda record: record.wall_s)
        for kind, rs in records.items()
    }

    if trace:
        traced = best["traced"]
        if workload.checks_backend_equivalence:
            attempted += 1
            try:
                agree = workload.equiv_prefix_ok()
            except Exception:
                traceback.print_exc()
                agree = False
            if not agree:
                failures.append(f"{workload.name}: native prefix != numpy prefix")
            traced.extra["equiv_prefix_ok"] = int(agree)
        values = layer_metrics(workload, traced, best["plain"].extra, walls)
        values["bench.failure_share"] = len(failures) / attempted
        wanted = spec["per_layer"]
        write_trace(workload, traced, records["traced"][0].tracer, values)
    else:
        wall = walls["plain"]
        values = {
            "setup_s": median(measure_setup(args)) or own_setup_s,
            "wall_s": wall,
            "sim_cycles_per_s": reference.cycles / wall if wall else 0.0,
            "host_us_per_flit": (
                wall * 1e6 / reference.ejected_flits
                if reference.ejected_flits else 0.0
            ),
            "peak_rss_mb": rss_mb,
        }
        wanted = spec["end_to_end"]
    workload.close()

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(f"# {workload.name} seed {args.seed} scale {args.scale:g}: "
          f"{len(records[kinds[0]])} passes/kind, {attempted} ops, "
          f"{len(failures)} failed")
    for name, entry in metrics.items():
        print(format_metric(name, entry))
    for line in failures[:5]:
        print(f"# FAILED {line}")
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "passes": {kind: len(rs) for kind, rs in records.items()},
        "wall_samples_s": {
            kind: [r.wall_s for r in rs] for kind, rs in records.items()
        },
        "wall_median_s": median([r.wall_s for r in records[kinds[0]]]),
        "own_setup_s": own_setup_s,
        "pin_ok": pin_ok,
        "failure_share": len(failures) / attempted,
        "sim_ipc_per_node": reference.ipc_per_node,
        "sim_avg_net_latency": reference.avg_net_latency,
        "digest": reference.digest,
    }
    print("#detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


def write_trace(workload, record, first_tracer, values) -> None:
    """The reported traced pass's aggregate table and per-layer values,
    with the raw spans the first traced pass kept."""
    OUT_DIR.mkdir(exist_ok=True)
    payload = {
        "workload": workload.name,
        "seed": workload.seed,
        "cycles_per_sim": workload.cycles,
        "raw_span_cycles": first_tracer.raw_cycles,
        "per_layer": values,
        "aggregates": record.tracer.aggregates(),
        "spans": first_tracer.raw_spans(),
    }
    path = OUT_DIR / f"trace-{workload.name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


# ----------------------------------------------------------------------
# The ledger: rounds in fresh interpreters, interleaved across workloads
# ----------------------------------------------------------------------
def manifest(args) -> dict:
    """Where and on what the numbers were taken."""

    def output(command) -> str:
        try:
            return subprocess.run(
                command, capture_output=True, text=True, check=False,
                cwd=ROOT, timeout=30,
            ).stdout.strip()
        except OSError:
            return ""

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    # The build tags the object with the hash of its source (build.py).
    native = ROOT / "src" / "repro" / "native"
    tag = hashlib.sha256((native / "kernels.c").read_bytes()).hexdigest()[:16]
    kernels = native / "_build" / f"kernels-{tag}.so"
    so_hash = (
        hashlib.sha256(kernels.read_bytes()).hexdigest()
        if kernels.is_file() else ""
    )
    import numpy

    cc = output([os.environ.get("CC") or "cc", "--version"])
    return {
        "commit": output(["git", "rev-parse", "HEAD"]) or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": cc.splitlines()[0] if cc else "",
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "kernels_so_sha256": so_hash,
        "rounds": args.rounds,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def spawn_round(args, name: str, trace: int) -> dict:
    """Run one round in a fresh interpreter and parse what it printed."""
    command = own_command(
        args, name, "--seconds", repr(args.seconds), "--trace", str(trace),
        *(["--no-pin"] if args.no_pin else []),
    )
    proc = subprocess.run(
        command, capture_output=True, text=True, cwd=ROOT, check=False
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: round {name} trace={trace} did not finish")
    result = json.loads(lines[-1])
    result["detail"] = next(
        json.loads(line[len("#detail "):])
        for line in lines if line.startswith("#detail ")
    )
    return result


def quartiles(values) -> dict:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered), "q1": q1, "q3": q3,
        "min": ordered[0], "max": ordered[-1], "n": len(ordered),
    }


def run_set(args, names) -> dict:
    """``rounds`` untraced rounds and one traced round per workload.

    Rounds are interleaved across workloads and the order alternates,
    so slow drift of the host lands on all of them alike.
    """
    rounds = {name: [] for name in names}
    for number in range(args.rounds):
        order = names if number % 2 == 0 else names[::-1]
        for name in order:
            rounds[name].append(spawn_round(args, name, 0))
            last = rounds[name][-1]
            print(f"  round {number + 1}/{args.rounds} {name:<24} "
                  f"wall_s {last['metrics']['wall_s']['value']:.4f} "
                  f"failed {last['failed']}/{last['attempted']}", flush=True)
    summary = {}
    for name in names:
        traced = spawn_round(args, name, 1)
        print(f"  traced {name}", flush=True)
        runs = rounds[name]
        end_to_end = {
            metric: dict(
                quartiles([r["metrics"][metric]["value"] for r in runs]),
                unit=runs[0]["metrics"][metric]["unit"],
            )
            for metric in runs[0]["metrics"]
        }
        exact = {key: sorted({r["detail"][key] for r in runs}, key=str)
                 for key in EXACT}
        summary[name] = {
            "end_to_end": end_to_end,
            "exact": exact,
            "attempted": sum(r["attempted"] for r in runs) + traced["attempted"],
            "failed": sum(r["failed"] for r in runs) + traced["failed"],
            "per_layer": traced["metrics"],
            "rounds": runs,
        }
    return summary


def print_summary(summary: dict) -> None:
    for name, entry in summary.items():
        print(f"\n== {name}: {entry['failed']}/{entry['attempted']} ops failed")
        for metric, stats in entry["end_to_end"].items():
            print(f"  {metric:<22} median {stats['median']:>12.6g} "
                  f"{stats['unit']:<6} q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                  f"min {stats['min']:.6g} n={stats['n']}")
        for key in EXACT:
            print(f"  {key:<22} {entry['exact'][key]}")
        for metric, value in entry["per_layer"].items():
            print("  " + format_metric(metric, value))


def compare_sets(spec: dict, first: dict, second: dict) -> bool:
    """Do two sets of runs of the same code agree within the bounds?

    ``worse`` is the change of the median in the metric's bad direction.
    ``ok``: the second median is within the metric's bound of the first.
    ``unresolved``: it is not, and the spread (q3-q1 over the median) of
    either set is wider than the bound, so the sets cannot tell.
    Exact statistics must be equal; they and a resolved disagreement
    fail the check.
    """
    agreed = True
    print(f"\n{'workload':<24}{'metric':<22}{'first':>12}{'second':>12}"
          f"{'worse':>9}{'bound':>7}  verdict")
    for name in first:
        for metric in spec["end_to_end"]:
            a = first[name]["end_to_end"][metric["name"]]
            b = second[name]["end_to_end"][metric["name"]]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"]
            spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
            if abs(worse) <= metric["bound"]:
                verdict = "ok"
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "DISAGREE"
                agreed = False
            print(f"{name:<24}{metric['name']:<22}{a['median']:>12.5g}"
                  f"{b['median']:>12.5g}{worse:>+9.1%}{metric['bound']:>7.0%}"
                  f"  {verdict}")
        for key in EXACT:
            a, b = first[name]["exact"][key], second[name]["exact"][key]
            same = a == b and len(a) == 1
            agreed = agreed and same
            print(f"{name:<24}{key:<22}{'':>12}{'':>12}{'':>9}{'exact':>7}"
                  f"  {'ok' if same else 'DISAGREE'}")
        layers_a, layers_b = first[name]["per_layer"], second[name]["per_layer"]
        moved = [
            metric for metric, entry in layers_a.items()
            if entry["unit"] == "count" and metric != "bench.spans_recorded"
            and entry["value"] != layers_b[metric]["value"]
        ]
        agreed = agreed and not moved
        print(f"{name:<24}{'per-layer counts':<22}{'':>12}{'':>12}{'':>9}"
              f"{'exact':>7}  {'ok' if not moved else 'DISAGREE ' + str(moved)}")
        failed = first[name]["failed"] + second[name]["failed"]
        agreed = agreed and failed == 0
    return agreed


def run_ledger(args) -> int:
    need_repro()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        names = [args.workload]
    OUT_DIR.mkdir(exist_ok=True)

    if args.repin:
        args.no_pin = True
        print("seed-1 digests (copy into benchmarks/perf/pins.json):")
        pins = {}
        for name in names:
            args.seed, args.scale = 1, 1.0
            pins[name] = spawn_round(args, name, 0)["detail"]["digest"]
        print(json.dumps(pins, indent=2, sort_keys=True))
        return 0

    # Compile outside the rounds so no round's setup_s pays for it.
    from repro.native import NativeBuildError, load_library

    try:
        load_library()
    except NativeBuildError as error:
        print(f"# no native kernels: {error}")
    ledger = {"manifest": manifest(args), "sets": []}
    for number in range(2 if args.selfcheck else 1):
        print(f"set {number + 1}: {args.rounds} rounds x {len(names)} workloads")
        ledger["sets"].append(run_set(args, names))
        print_summary(ledger["sets"][-1])
    path = OUT_DIR / "ledger.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
    print(f"\nledger written to {path.relative_to(ROOT)}")
    failed = sum(e["failed"] for s in ledger["sets"] for e in s.values())
    if args.selfcheck:
        if not compare_sets(spec, *ledger["sets"]):
            print("selfcheck: the two sets DISAGREE")
            return 1
        print("selfcheck: the two sets agree within the benchmark's bounds")
    return 1 if failed else 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the names in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1,
                        help="generates the application mix, the simulator "
                             "seed and the chaos targets")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one round runs passes "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: traced round, per-layer metrics")
    parser.add_argument("--rounds", type=int, default=None,
                        help="ledger mode: untraced rounds per workload (7)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every cycle count; smoke tests only")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two sets back to back, compared against the "
                             "bounds; non-zero exit when they disagree")
    parser.add_argument("--repin", action="store_true",
                        help="print new seed-1 digests; never writes them")
    parser.add_argument("--no-pin", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    ledger = (
        args.workload is None or args.rounds is not None
        or args.selfcheck or args.repin
    )
    if ledger:
        if args.rounds is None:
            args.rounds = 7
        return run_ledger(args)
    return run_round(args)


if __name__ == "__main__":
    sys.exit(main())
