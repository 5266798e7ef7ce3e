"""The six benchmark workloads.

Each workload turns ``--seed`` into inputs (application mix, simulator
seed, chaos targets), pins every other configuration value explicitly —
backend, network, topology, controller, epoch — so a later default flip
cannot silently move it, and exposes the same four steps to the driver
in ``bench.py``:

``setup()``
    once per process, charged to ``setup_s``: kernel load and, for
    ``sweep_warm``, populating the result cache;
``prepare(tracer)``
    per pass, untimed: build the inputs and whatever the timed call
    needs (a constructed ``Simulator``, an empty cache directory);
``steps(ctx, kind)``
    per pass, **timed** one by one: the pass's fixed unit of work cut
    into a fixed list of calls — ``sim.run(chunk)`` for each chunk of
    the cycle budget (a resumed run is bit-identical to an unbroken
    one), or one ``run_jobs`` call per sweep;
``results(ctx)`` and ``finish(ctx, results, record)``
    per pass, untimed: collect every result, check it, clean up.

Step *k* is the same work in every pass, so ``bench.py`` can take the
fastest instance of each step across the passes of a round.

One *op* is one simulation job.  Pass sizes are chosen from measured
rates so a pass takes 0.2–1.5 s on the 2-core reference host and a
15 s round holds 10–50 of them; ``scale`` shrinks the cycle counts for
smoke tests only.  The program under test sees only generated inputs.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import pathlib
import shutil
import tempfile
import time
import traceback

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

EPOCH = 1000
SWEEP_JOBS = 2  # pool workers in sweep_cold: nproc of the reference host


def result_digest(result) -> str:
    """sha256 of a result's canonical strict JSON, ``perf`` dropped.

    Same encoding as ``tests/test_golden_results.py::result_hash``;
    ``perf`` carries wall-clock times and is not a simulated statistic.
    """
    payload = result.to_dict()
    payload.pop("perf", None)
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def combined_digest(digests) -> str:
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _load_kernels() -> float:
    """Load (on a cold checkout: compile) the native kernels; seconds."""
    from repro.native import load_library

    start = time.perf_counter()
    load_library()
    return time.perf_counter() - start


class PassRecord:
    """What one pass did: timing, op accounting and simulated totals."""

    def __init__(self, kind: str):
        self.kind = kind
        self.step_s = []  # timed duration of each step, in order
        self.attempted = 0
        self.failures = []  # one line per failed op
        self.digest = ""
        self.cycles = 0
        self.ejected_flits = 0
        self.ipc_per_node = 0.0
        self.avg_net_latency = 0.0
        self.results = []  # a traced pass's results (None: failed job)
        self.sims = {}  # tracer run_id -> that simulation's counts
        self.tracer = None
        self.extra = {}

    @property
    def wall_s(self) -> float:
        return sum(self.step_s)

    def fail(self, reason: str) -> None:
        self.failures.append(reason)

    def summarize(self, results) -> None:
        """Fill the simulated totals from the pass's good results."""
        good = [r for r in results if r is not None]
        if self.tracer is not None:
            # Only the per-layer metrics of a traced pass read them; an
            # untraced round keeping every pass's results would inflate
            # the peak_rss_mb it reports.
            self.results = list(results)
        self.cycles = sum(int(r.cycles) for r in good)
        self.ejected_flits = sum(int(r.ejected_flits) for r in good)
        if good:
            self.ipc_per_node = sum(
                r.throughput_per_node for r in good
            ) / len(good)
            self.avg_net_latency = sum(
                float(r.avg_net_latency) for r in good
            ) / len(good)


def check_result(result, cycles: int) -> str:
    """Why *result* is wrong, or ``""`` when it passes every check."""
    if result is None:
        return "no result"
    if int(result.cycles) != cycles:
        return f"ran {result.cycles} cycles, expected {cycles}"
    if not result.flit_conservation_ok:
        return (
            f"flit conservation: injected {result.injected_flits} != ejected "
            f"{result.ejected_flits} + in flight {result.in_flight_flits}"
        )
    return ""


class Workload:
    """Common shape of the six workloads (see the module docstring)."""

    name = ""
    why = ""
    base_cycles = 0
    #: pass kinds of the traced round; the first is the untraced
    #: reference that ``bench.trace_overhead_pct`` divides by
    trace_kinds = ("plain", "traced")
    #: workloads naming the same ``inputs`` draw the same ones per seed
    inputs = ""
    #: the traced round also runs ``equiv_prefix_ok`` (native_mesh64)
    checks_backend_equivalence = False

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.cycles = max(int(self.base_cycles * scale), 20)
        self.first_load_s = 0.0
        #: per-job digests every pass must reproduce: those of the first
        #: good pass, or for sweep_warm of what set-up stored in the cache
        self.reference = None

    def rng(self, tag: str):
        from repro.rng import child_rng

        return child_rng(self.seed, f"perf-{self.inputs or self.name}-{tag}")

    def setup(self) -> None:
        """Once per process; its cost belongs to ``setup_s``."""

    def close(self) -> None:
        """Drop what ``setup`` left on disk."""

    def prepare(self, tracer=None):
        raise NotImplementedError

    def release(self, ctx) -> None:
        """Drop what one ``prepare`` left on disk."""

    def steps(self, ctx, kind: str) -> list:
        """The pass's timed calls, in order; the same list every pass."""
        raise NotImplementedError

    def results(self, ctx) -> list:
        raise NotImplementedError

    def finish(self, ctx, results, record: PassRecord) -> None:
        """Check *results*, job by job, against every rule an op obeys."""
        results = list(results) if results is not None else []
        record.attempted = max(len(results), self.ops_per_pass())
        digests = []
        for index in range(record.attempted):
            result = results[index] if index < len(results) else None
            why = check_result(result, self.cycles) or self.check_extra(result)
            digest = result_digest(result) if result is not None else ""
            digests.append(digest)
            if not why and self.reference is not None:
                if digest != self.reference[index]:
                    why = "digest differs from the reference pass"
            if why:
                record.fail(f"{self.name}[{index}]: {why}")
        if self.reference is None and not record.failures:
            self.reference = digests
        record.digest = combined_digest(digests)
        record.summarize(results)

    def ops_per_pass(self) -> int:
        return 1

    def check_extra(self, result) -> str:
        return ""


# ----------------------------------------------------------------------
# Direct workloads: one Simulator, one run() per pass
# ----------------------------------------------------------------------
class DirectWorkload(Workload):
    nodes = 0
    backend = "numpy"
    steps_per_pass = 1  # sized so one step takes about 50 ms
    category = "H"  # application intensity levels the mix draws from

    def setup(self) -> None:
        if self.backend == "native":
            self.first_load_s = _load_kernels()

    def config_kwargs(self) -> dict:
        raise NotImplementedError

    def prepare(self, tracer=None, backend=None):
        from repro.config import SimulationConfig
        from repro.sim.simulator import Simulator
        from repro.traffic.workloads import make_category_workload

        with _span(tracer, "traffic.workload_build"):
            workload = make_category_workload(
                self.category, self.nodes, self.rng("mix")
            )
            workload = self.adjust_mix(workload)
        config = SimulationConfig(
            workload, seed=self.seed, epoch=EPOCH,
            backend=backend or self.backend, **self.config_kwargs(),
        )
        return Simulator(config)

    def adjust_mix(self, workload):
        return workload

    def steps(self, sim, kind: str) -> list:
        count = min(self.steps_per_pass, self.cycles)
        chunk = self.cycles // count
        chunks = [chunk] * (count - 1) + [self.cycles - chunk * (count - 1)]
        return [functools.partial(sim.run, cycles) for cycles in chunks]

    def results(self, sim) -> list:
        return [sim.result()]


class NativeMesh64(DirectWorkload):
    name = "native_mesh64"
    why = (
        "Paper's 64-core point on the native backend: fixed per-cycle cost "
        "(Python loop, 4 ctypes calls, RNG draws) dominates; epoch "
        "batching must show here"
    )
    nodes = 64
    backend = "native"
    base_cycles = 10_000
    steps_per_pass = 8
    prefix_cycles = 2_000
    checks_backend_equivalence = True

    def config_kwargs(self) -> dict:
        from repro.control.central import CentralController, ControlParams

        return dict(
            network="bless", topology="mesh",
            controller=CentralController(ControlParams(epoch=EPOCH)),
        )

    def equiv_prefix_ok(self) -> bool:
        """A short prefix of this workload agrees on both backends."""
        cycles = max(int(self.prefix_cycles * self.scale), 20)
        native, numpy = (
            result_digest(self.prepare(backend=backend).run(cycles))
            for backend in ("native", "numpy")
        )
        return native == numpy


class NativeMesh1024(DirectWorkload):
    name = "native_mesh1024"
    why = (
        "Paper's scaling question at the native route-table bound: kernel "
        "bodies and Python-side destination sampling dominate, per-call "
        "overhead is diluted; the bypass workload for call batching"
    )
    nodes = 1024
    backend = "native"
    base_cycles = 2_000
    steps_per_pass = 20

    def config_kwargs(self) -> dict:
        from repro.control.central import ControlParams
        from repro.control.hierarchical import HierarchicalController

        return dict(
            network="bless", topology="mesh",
            controller=HierarchicalController(
                ControlParams(epoch=EPOCH), num_domains=0, mode="global"
            ),
            model_control_traffic=True,
            locality="exponential", locality_param=1.0,
        )


class NumpyMesh256(DirectWorkload):
    name = "numpy_mesh256"
    why = (
        "Reference numpy engine on its closed-form-mesh fast path with "
        "credit flow control: simplifications of the fast-path machinery "
        "must keep it flat"
    )
    nodes = 256
    backend = "numpy"
    base_cycles = 600
    steps_per_pass = 6

    def config_kwargs(self) -> dict:
        from repro.control.base import NoController

        return dict(
            network="buffered", topology="mesh", controller=NoController()
        )


class NumpyChipletGuarded(DirectWorkload):
    name = "numpy_chiplet_guarded"
    why = (
        "Same network layer on its general path: graph route tables, "
        "side buffer, fault masks, invariant checker every cycle, scripted "
        "chaos; a fast-path gain that costs this path shows here"
    )
    nodes = 256
    backend = "numpy"
    base_cycles = 1_200
    steps_per_pass = 24
    tile = 4
    #: the paper's mixed workload: the quiesced link drains within 20
    #: cycles of its event on every seed tried (75 under a saturated H
    #: mix), 30x inside the 600-cycle window before its link_up, so no
    #: seed turns the race between drain and recovery into a skipped
    #: event and a failed op
    category = "HML"

    def targets(self):
        """The seed picks a chiplet; its opposite corner routers are the
        link and router targets (a corner's loss never disconnects the
        graph, so every event can apply)."""
        side = 16
        tiles = side // self.tile
        pick = int(self.rng("chaos").integers(0, tiles * tiles))
        x0, y0 = (pick % tiles) * self.tile, (pick // tiles) * self.tile
        corner = y0 * side + x0
        far_corner = (y0 + self.tile - 1) * side + x0 + self.tile - 1
        return corner, far_corner

    def adjust_mix(self, workload):
        """The router that fail-stops runs no application, so there is
        no core to halt and nothing of its own to orphan."""
        from repro.traffic.workloads import Workload as Mix

        names = list(workload.app_names)
        names[self.targets()[1]] = None
        return Mix(tuple(names), category=workload.category)

    def chaos_events(self):
        """Link, router and controller each go down and come back.

        The router fail-stops at cycle 0, on an empty network: draining
        a router under deflection routing takes a long-tailed number of
        cycles (flits bound for it orbit until contention pushes them
        in), and a drain still pending at ``router_up`` would skip the
        event on some seeds.  Routing around the dead router, the remap
        and the fault masks are then exercised for 96 % of the run.  The
        controller is down across the epoch boundary at cycle 1000.
        """
        from repro.chaos import ChaosEvent
        from repro.topology.mesh import EAST

        corner, far_corner = self.targets()

        def at(percent: int) -> int:
            return self.cycles * percent // 100

        return (
            ChaosEvent(0, "router_down", far_corner),
            ChaosEvent(at(10), "link_down", corner, EAST),
            ChaosEvent(at(45), "controller_down"),
            ChaosEvent(at(60), "link_up", corner, EAST),
            ChaosEvent(at(92), "controller_up"),
            ChaosEvent(at(96), "router_up", far_corner),
        )

    def config_kwargs(self) -> dict:
        from repro.chaos import ChaosConfig
        from repro.control.central import ControlParams
        from repro.control.hierarchical import HierarchicalController

        return dict(
            network="hybrid", topology="chiplet", chiplet_tile=self.tile,
            controller=HierarchicalController(
                ControlParams(epoch=EPOCH), num_domains=0, mode="global"
            ),
            model_control_traffic=True, check_invariants=True,
            chaos=ChaosConfig(events=self.chaos_events(), seed=self.seed),
        )

    def check_extra(self, result) -> str:
        chaos = result.chaos
        if chaos is None:
            return "no chaos report"
        skipped = [e.kind for e in chaos.events if e.skipped or e.applied_cycle < 0]
        if skipped:
            return f"chaos events not applied: {skipped}"
        if chaos.orphaned_flits:
            return f"{chaos.orphaned_flits} orphaned flits"
        if result.guardrails.invariant_checks != self.cycles:
            return (
                f"{result.guardrails.invariant_checks} invariant checks "
                f"for {self.cycles} cycles"
            )
        return ""


# ----------------------------------------------------------------------
# Sweep workloads: a figure-shaped grid through run_jobs
# ----------------------------------------------------------------------
#: (network, controller recipe) columns of the Fig 3/7-shaped grid
SWEEP_COLUMNS = (
    ("bless", ("none",)),
    ("bless", ("central",)),
    ("buffered", ("none",)),
)
SWEEP_WORKLOADS = 12


class SweepWorkload(Workload):
    inputs = "sweep"  # cold and warm run the same 36 specs
    base_cycles = 2_000
    nodes = 16

    def setup(self) -> None:
        self.first_load_s = _load_kernels()
        OUT_DIR.mkdir(exist_ok=True)

    def ops_per_pass(self) -> int:
        return SWEEP_WORKLOADS * len(SWEEP_COLUMNS)

    def build_specs(self, tracer=None):
        from repro.harness import JobSpec
        from repro.traffic.workloads import make_workload_batch

        with _span(tracer, "traffic.workload_build"):
            workloads = make_workload_batch(
                SWEEP_WORKLOADS, self.nodes, self.rng("mix")
            )
        with _span(tracer, "harness.spec_build"):
            return [
                JobSpec.for_workload(
                    workload, self.cycles, seed=self.seed, epoch=EPOCH,
                    controller=controller, network=network, topology="mesh",
                    config={"backend": "native"},
                )
                for workload in workloads
                for network, controller in SWEEP_COLUMNS
            ]

    def cache_dir(self) -> str:
        return tempfile.mkdtemp(prefix=f"cache-{self.name}-", dir=OUT_DIR)


class SweepCold(SweepWorkload):
    name = "sweep_cold"
    why = (
        "What a user waits for: 36 small native jobs through run_jobs with "
        "2 workers and an empty cache; pool fan-out, Simulator "
        "construction, result() and cache writes are a visible share"
    )
    #: ``serial`` is the same sweep inline (jobs=1): the traced pass must
    #: run in-process to record spans, and serial/plain is the pool speedup
    trace_kinds = ("plain", "serial", "traced")

    def prepare(self, tracer=None):
        return {
            "specs": self.build_specs(tracer), "dir": self.cache_dir(),
            "reports": [],
        }

    def steps(self, ctx, kind: str) -> list:
        """One ``run_jobs`` call per column of the grid, one cache."""
        from repro.harness import ResultCache, run_jobs

        cache = ResultCache(ctx["dir"])
        jobs = SWEEP_JOBS if kind == "plain" else 1
        columns = len(SWEEP_COLUMNS)

        def sweep(column: int) -> None:
            ctx["reports"].append(
                run_jobs(ctx["specs"][column::columns], jobs=jobs, cache=cache)
            )

        return [functools.partial(sweep, column) for column in range(columns)]

    def results(self, ctx) -> list:
        columns = len(SWEEP_COLUMNS)
        merged = [None] * len(ctx["specs"])
        for column, report in enumerate(ctx["reports"]):
            merged[column::columns] = report.results
        return merged

    def release(self, ctx) -> None:
        if ctx is not None:
            shutil.rmtree(ctx["dir"], ignore_errors=True)

    def finish(self, ctx, results, record: PassRecord) -> None:
        super().finish(ctx, results, record)
        reports = ctx["reports"] if ctx is not None else []
        if reports:
            record.extra = {
                "report_wall_s": sum(r.wall_seconds for r in reports),
                "job_seconds": sum(r.job_seconds for r in reports),
                "workers": max(r.workers for r in reports),
                "jobs": sum(r.total for r in reports),
                "jobs_failed": sum(r.failed for r in reports),
                "cache_hits": sum(r.cache_hits for r in reports),
                "cache_misses": sum(r.executed for r in reports),
                "cache_entry_bytes": _mean_entry_bytes(ctx["dir"]),
            }
        self.release(ctx)


class SweepWarm(SweepWorkload):
    name = "sweep_warm"
    why = (
        "Cache reads beside sweep_cold's writes: all-hit run_jobs passes "
        "over the same 36 specs; an entry format that is faster to write "
        "but slower to read shows as a loss here"
    )
    sweeps_per_pass = 20

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.sweeps = max(int(self.sweeps_per_pass * scale), 2)
        self.dir = None
        self.specs = []

    def setup(self) -> None:
        """Populate the cache inline; its cost belongs to ``setup_s``."""
        from repro.harness import ResultCache, run_jobs

        super().setup()
        self.dir = self.cache_dir()
        self.specs = self.build_specs()
        report = run_jobs(self.specs, jobs=1, cache=ResultCache(self.dir))
        # What every later pass must be served, bit for bit.
        self.reference = [
            result_digest(r) if r is not None else "" for r in report.results
        ]

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)

    def prepare(self, tracer=None):
        from repro.harness import ResultCache

        if tracer is not None:
            self.build_specs(tracer)
        return {
            "specs": self.specs, "cache": ResultCache(self.dir), "reports": [],
        }

    def steps(self, ctx, kind: str) -> list:
        from repro.harness import run_jobs

        def sweep() -> None:
            ctx["reports"].append(
                run_jobs(ctx["specs"], jobs=1, cache=ctx["cache"])
            )

        return [sweep] * self.sweeps

    def results(self, ctx) -> list:
        return ctx["reports"][-1].results if ctx["reports"] else []

    def finish(self, ctx, results, record: PassRecord) -> None:
        """The last sweep gets every check, against the digests set-up
        stored; the earlier ones must be all hits of plausible results
        (hashing all of them would cost more than the timed region)."""
        super().finish(ctx, results, record)
        reports = ctx["reports"] if ctx is not None else []
        jobs = self.ops_per_pass()
        record.attempted = jobs * self.sweeps
        for number, report in enumerate(reports):
            last = number == len(reports) - 1
            for rec, res in zip(report.records, report.results):
                if not rec.cached:
                    record.fail(f"{self.name}: sweep {number} missed the cache")
                elif not last and check_result(res, self.cycles):
                    record.fail(f"{self.name}: sweep {number} served a bad result")
        # The base class already failed the jobs of one sweep that never ran.
        for _ in range(jobs * (self.sweeps - max(len(reports), 1))):
            record.fail(f"{self.name}: sweep did not run")
        if reports:
            record.extra = {
                "cache_hits": sum(r.cache_hits for r in reports),
                "cache_misses": sum(r.executed for r in reports),
                "jobs_failed": sum(r.failed for r in reports),
                "cache_entry_bytes": _mean_entry_bytes(self.dir),
            }
        # Totals cover every sweep of the pass, not just the last one.
        record.cycles *= self.sweeps
        record.ejected_flits *= self.sweeps


def _mean_entry_bytes(root) -> float:
    entries = list(pathlib.Path(root).glob("*/*.json"))
    if not entries:
        return 0.0
    return sum(p.stat().st_size for p in entries) / len(entries)


WORKLOADS = {
    cls.name: cls
    for cls in (
        NativeMesh64, NativeMesh1024, NumpyMesh256, NumpyChipletGuarded,
        SweepCold, SweepWarm,
    )
}


def make_workload(name: str, seed: int, scale: float = 1.0) -> Workload:
    return WORKLOADS[name](seed, scale)


def run_pass(workload: Workload, kind: str, raw_spans: bool = False):
    """One pass of *workload*; never raises for a failing simulation.

    A traced pass runs prepare and the timed call inside
    :func:`perf_tracing.instrument`; the checks always run untraced.
    """
    from perf_tracing import Tracer, instrument

    record = PassRecord(kind)
    ctx = results = None
    guardrail_errors = 0
    gc.collect()
    if kind == "traced":
        record.tracer = Tracer(raw_cap=60_000 if raw_spans else 0)
        # A simulator reports after every run() call; its counters are
        # cumulative, so the last report per simulation is the one kept.
        def keep_counts(sim, result) -> None:
            record.sims[record.tracer.run_id] = sim_counts(sim)

        scope = instrument(record.tracer, keep_counts)
    else:
        scope = contextlib.nullcontext()
    try:
        with scope:
            ctx = workload.prepare(record.tracer)
            for step in workload.steps(ctx, kind):
                start = time.perf_counter()
                step()
                record.step_s.append(time.perf_counter() - start)
            results = workload.results(ctx)
    except Exception as error:
        # The benchmark must report the failure, not die of it: a pass
        # that raises (no compiler, guardrail abort in a direct run,
        # unsupported configuration) leaves its ops without a result,
        # and finish() counts each of them attempted and failed.
        from repro.guardrails.errors import GuardrailError

        traceback.print_exc()
        results = None
        guardrail_errors = int(isinstance(error, GuardrailError))
    workload.finish(ctx, results, record)
    record.extra["guardrail_errors"] = guardrail_errors + record.extra.get(
        "jobs_failed", 0
    )
    return record


def sim_counts(sim) -> dict:
    """Counts a finished simulator's layers already keep."""
    stats = sim.network.stats
    return {
        "backend": sim.config.backend,
        "nodes": int(sim.topology.num_nodes),
        "links": int(sim.topology.num_links),
        "cycles": int(sim.cycle),
        "flit_hops": int(stats.flit_hops),
        "avg_buffer_occupancy": float(stats.avg_buffer_occupancy),
        "control_attempted": int(stats.control_flits_attempted),
        "control_sent": int(stats.control_flits_sent),
        "control_dropped": int(stats.control_flits_dropped),
        "insns_retired": int(sim.cores.retired.sum()),
        "misses_issued": int(sim.cores.misses_issued.sum()),
    }
