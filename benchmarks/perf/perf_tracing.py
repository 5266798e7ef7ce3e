"""In-memory span tracer and the outside-in instrumentation of ``repro``.

Nothing under ``src/`` knows about this module.  The traced pass of the
benchmark wraps the *public* callables at each layer boundary
(``pipeline.phase(name).fn``, ``Simulator.run``, ``NativeAccel.flush``,
``controller.on_epoch``, ``ResultCache.get``/``put`` ...) for the
duration of one ``with instrument(...)`` block and restores every one
of them on exit.  Spans inside ``engine.py``/``kernels.c`` are a later
change (see README.md).

A span is ``{name, start_ns, end_ns, parent, run_id}``.  Spans are
aggregated per ``(name, parent)`` as they close — count, total, max and
the time covered by child spans — so a 100 000-span pass costs a
dictionary, not a list; raw spans are kept only for the first
``raw_cycles`` simulated cycles (bounded by ``raw_cap``) and written
out by the caller when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import time

__all__ = ["Tracer", "instrument"]

#: network-phase post-hooks, by the name of the simulator method behind
#: them, mapped to the layer span they are reported under
_HOOK_SPANS = {
    "_invariants_hook": "guardrails.check",
    "_watchdog_hook": "guardrails.watchdog",
}


class Tracer:
    """Collects spans from wrapped callables; single-threaded."""

    def __init__(self, raw_cycles: int = 2000, raw_cap: int = 60_000):
        self.raw_cycles = raw_cycles
        self.raw_cap = raw_cap
        #: (name, parent name or None) -> [count, total_ns, max_ns, child_ns]
        self.agg = {}
        #: (name, start_ns, end_ns, parent name, run_id) tuples
        self.raw = []
        self.raw_on = True
        self.run_id = 0  # which simulation job the open spans belong to
        self.spans_recorded = 0
        self._stack = []  # open frames: [name, child_ns]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, phase: bool = False):
        """*fn* with a span named *name* around every call.

        ``phase=True`` marks a pipeline phase body, whose first argument
        is the simulated cycle: it switches raw-span retention off once
        the run passes ``raw_cycles``.
        """
        stack = self._stack
        close = self._close
        clock = time.perf_counter_ns
        raw_cycles = self.raw_cycles

        def traced(*args, **kwargs):
            if phase and self.raw_on and args[0] >= raw_cycles:
                self.raw_on = False
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(parent, frame, start, end)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        parent = self._stack[-1] if self._stack else None
        frame = [name, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._close(parent, frame, start, end)

    def _close(self, parent, frame, start, end) -> None:
        name = frame[0]
        duration = end - start
        parent_name = None
        if parent is not None:
            parent[1] += duration
            parent_name = parent[0]
        entry = self.agg.get((name, parent_name))
        if entry is None:
            self.agg[(name, parent_name)] = [1, duration, duration, frame[1]]
        else:
            entry[0] += 1
            entry[1] += duration
            if duration > entry[2]:
                entry[2] = duration
            entry[3] += frame[1]
        self.spans_recorded += 1
        if self.raw_on and len(self.raw) < self.raw_cap:
            self.raw.append((name, start, end, parent_name, self.run_id))

    # ------------------------------------------------------------------
    # Aggregates (seconds)
    # ------------------------------------------------------------------
    def _entries(self, name: str):
        # A span nested in a span of the same name (a controller that
        # delegates to another controller) is already covered by its
        # parent; skip it so totals do not double count.
        return [
            entry for (n, parent), entry in self.agg.items()
            if n == name and parent != name
        ]

    def total_s(self, name: str) -> float:
        return sum(e[1] for e in self._entries(name)) / 1e9

    def count(self, name: str) -> int:
        return sum(e[0] for e in self._entries(name))

    def self_s(self, name: str) -> float:
        """Duration minus the part of it that child spans cover."""
        return sum(e[1] - e[3] for e in self._entries(name)) / 1e9

    def children_s(self, name: str) -> float:
        """Summed duration of the spans whose parent is *name*."""
        return sum(
            entry[1] for (n, parent), entry in self.agg.items()
            if parent == name and n != name
        ) / 1e9

    def aggregates(self) -> list:
        """JSON-ready ``(name, parent)`` table, largest total first."""
        rows = [
            {
                "name": name, "parent": parent, "count": e[0],
                "total_ns": e[1], "max_ns": e[2], "self_ns": e[1] - e[3],
            }
            for (name, parent), e in self.agg.items()
        ]
        rows.sort(key=lambda row: -row["total_ns"])
        return rows

    def raw_spans(self) -> list:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "run_id": r}
            for n, s, e, p, r in self.raw
        ]


def _instrument_simulator(tracer: Tracer, sim) -> None:
    """Wrap one constructed simulator's per-cycle and per-epoch callables."""
    for name in sim.pipeline.names:
        phase = sim.pipeline.phase(name)
        phase.fn = tracer.wrap(f"phase.{name}", phase.fn, phase=True)
        phase.hooks[:] = [
            tracer.wrap(
                _HOOK_SPANS.get(getattr(hook, "__name__", ""), "guardrails.hook"),
                hook,
            )
            for hook in phase.hooks
        ]
    controller = sim.controller
    controller.on_epoch = tracer.wrap("control.on_epoch", controller.on_epoch)
    network = sim.network
    network.set_throttle_rates = tracer.wrap(
        "control.set_rates", network.set_throttle_rates
    )


@contextlib.contextmanager
def instrument(tracer: Tracer, on_run_done=None):
    """Trace every simulator built and run inside the block.

    ``on_run_done(sim, result)`` is called after each ``Simulator.run``
    so the caller can read the counts the layers already keep
    (``sim.network.stats``, ``sim.cores.retired`` ...) at the boundary
    where the work happened; ``tracer.run_id`` then names the simulation
    (a run resumed in chunks reports once per chunk, under one id).
    """
    import repro.harness.executor as executor
    import repro.sim.simulator as simulator
    import repro.topology.registry as registry
    from repro.harness.cache import ResultCache
    from repro.harness.jobs import JobSpec
    from repro.native.accel import NativeAccel
    from repro.sim.results import SimulationResult
    from repro.sim.simulator import Simulator

    saved = []

    def patch(owner, attr, replacement) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_span(owner, attr, name) -> None:
        patch(owner, attr, tracer.wrap(name, vars(owner)[attr]))

    construct = tracer.wrap("sim.construct", Simulator.__init__)
    #: id(simulator) -> run_id, one per simulation job.  A freed
    #: simulator's address can be reused, so ids come from a counter and
    #: a new simulator overwrites the entry of the dead one.
    run_ids = {}
    built = [0]

    def traced_init(self, config):
        built[0] += 1
        tracer.run_id = run_ids[id(self)] = built[0]
        tracer.raw_on = tracer.run_id == 1
        construct(self, config)
        _instrument_simulator(tracer, self)

    run = tracer.wrap("sim.run", Simulator.run)

    def traced_run(self, cycles, deadline=None):
        # Raw spans are kept for the first simulation only, up to
        # raw_cycles (a run resumed in chunks keeps them across chunks).
        tracer.run_id = run_ids[id(self)]
        tracer.raw_on = tracer.run_id == 1 and self.cycle < tracer.raw_cycles
        result = run(self, cycles, deadline)
        tracer.raw_on = False
        if on_run_done is not None:
            on_run_done(self, result)
        return result

    from_dict = tracer.wrap(
        "harness.from_dict", vars(SimulationResult)["from_dict"].__func__
    )

    patch(Simulator, "__init__", traced_init)
    patch(Simulator, "run", traced_run)
    patch_span(Simulator, "result", "sim.result")
    patch_span(simulator, "build_topology", "topology.build")
    patch_span(registry, "domain_map", "topology.domain_map")
    patch_span(NativeAccel, "__init__", "native.accel_construct")
    patch_span(NativeAccel, "flush", "native.flush")
    patch_span(executor, "run_job", "harness.run_job")
    patch_span(ResultCache, "get", "harness.cache_get")
    patch_span(ResultCache, "put", "harness.cache_put")
    patch_span(SimulationResult, "to_dict", "harness.to_dict")
    patch(SimulationResult, "from_dict", classmethod(from_dict))
    patch_span(JobSpec, "content_hash", "harness.content_hash")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
