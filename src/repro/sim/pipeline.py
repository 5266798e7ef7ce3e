"""Composable phase pipeline for the simulator's cycle loop.

The simulator advances one cycle by running an ordered list of named
*phases* (``behavior``, ``cores``, ``memory``, ``network``, ``ejection``
plus the periodic ``epoch`` control phase).  PR 3 instrumented that loop
by literally duplicating it — a plain copy and a ``PhaseTimer`` copy
that had to be kept in sync by hand.  This module replaces the
duplication with composition:

- phases are registered once, in execution order, on a
  :class:`PhasePipeline`;
- optional instrumentation (the :class:`~repro.observability.PhaseTimer`)
  is applied at *compile* time as a per-phase wrapper, so a run without
  profiling executes the original bound methods with zero added
  branches;
- cross-cutting checks (invariant checker, livelock watchdog) register
  as **post-hooks** on the phase whose outcome they verify instead of
  being special-cased inside the loop — a phase without hooks compiles
  to its bare callable;
- a backend that can run whole cycles in one call registers that
  callable as a **fusion** of the per-cycle phases
  (:meth:`PhasePipeline.fuse`).  The loop is handed it only while
  nothing observes the fused phases — no hook, no timer, no replaced
  ``Phase.fn`` — so every observer keeps seeing one call per phase per
  cycle, and an unobserved run pays one call per span of cycles.

:meth:`PhasePipeline.compiled` returns plain tuples of callables; the
simulator's single run loop iterates them.  There is exactly one loop to
maintain, and its disabled-observability cost is the tuple iteration
itself (measured under the PR-3 5%-overhead CI gate).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

__all__ = ["Phase", "PhasePipeline"]

#: A phase body or hook: called once per (applicable) cycle with the
#: current cycle number.
PhaseFn = Callable[[int], None]

#: A fusion of all per-cycle phases: called with the first cycle and the
#: number of whole cycles to run.
SpanFn = Callable[[int, int], None]


class Phase:
    """One named step of the per-cycle pipeline.

    ``every`` is ``None`` for the ordinary per-cycle phases.  A periodic
    phase (the controller epoch) carries its period in cycles and runs
    after the cycle counter advances, when ``cycle % every == 0`` — the
    same boundary semantics the original loop gave the epoch step.
    """

    __slots__ = ("name", "fn", "every", "hooks")

    def __init__(self, name: str, fn: PhaseFn, every: Optional[int] = None):
        self.name = name
        self.fn = fn
        self.every = every
        self.hooks: List[PhaseFn] = []

    def compiled(self, timer=None) -> PhaseFn:
        """The phase as a single callable, hooks and timing applied."""
        fn = self.fn
        if self.hooks:
            fn = _chain(fn, tuple(self.hooks))
        if timer is not None:
            fn = _timed(fn, self.name, timer)
        return fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        period = "" if self.every is None else f", every={self.every}"
        return f"Phase({self.name!r}{period}, hooks={len(self.hooks)})"


def _chain(fn: PhaseFn, hooks: Tuple[PhaseFn, ...]) -> PhaseFn:
    def run(cycle: int) -> None:
        fn(cycle)
        for hook in hooks:
            hook(cycle)

    return run


def _timed(fn: PhaseFn, name: str, timer) -> PhaseFn:
    def run(cycle: int) -> None:
        timer.begin_cycle()
        fn(cycle)
        timer.lap(name)

    return run


class PhasePipeline:
    """An ordered, composable sequence of simulation phases."""

    def __init__(self):
        self._phases: List[Phase] = []
        #: (fused phases, their ``fn`` at registration, span callable)
        self._fusion: Optional[
            Tuple[Tuple[Phase, ...], Tuple[PhaseFn, ...], SpanFn]
        ] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(
        self, name: str, fn: PhaseFn, every: Optional[int] = None
    ) -> Phase:
        """Register a phase at the end of the pipeline.

        Pass ``every`` to make the phase periodic: it then runs on
        period boundaries after the cycle counter advances instead of
        once per cycle.
        """
        if any(p.name == name for p in self._phases):
            raise ValueError(f"duplicate phase {name!r}")
        if every is not None and every < 1:
            raise ValueError(f"phase period must be >= 1, got {every}")
        phase = Phase(name, fn, every)
        self._phases.append(phase)
        return phase

    def phase(self, name: str) -> Phase:
        for p in self._phases:
            if p.name == name:
                return p
        raise KeyError(f"no phase named {name!r}")

    def post_hook(self, name: str, hook: PhaseFn) -> None:
        """Run *hook* after phase *name* every cycle the phase runs.

        This is how cross-cutting concerns (invariant checking, the
        livelock watchdog) attach to the loop: they cost nothing when
        not registered, and the phase order contract stays in exactly
        one place.
        """
        self.phase(name).hooks.append(hook)

    def fuse(self, names: Sequence[str], span: SpanFn) -> None:
        """Register *span* as one call for phases *names*, many cycles.

        ``span(cycle, count)`` must leave the system exactly where
        *count* rounds of the named phases would.  Whether the loop gets
        it is decided at every :meth:`compiled`, from what is observing
        those phases then.
        """
        phases = tuple(self.phase(name) for name in names)
        self._fusion = (phases, tuple(p.fn for p in phases), span)

    def set_period(self, name: str, every: int) -> None:
        """Adjust a periodic phase's period (the controller epoch)."""
        if every < 1:
            raise ValueError(f"phase period must be >= 1, got {every}")
        phase = self.phase(name)
        if phase.every is None:
            raise ValueError(f"phase {phase.name!r} is not periodic")
        phase.every = every

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self._phases)

    def compiled(self, timer=None) -> Tuple[
        Tuple[PhaseFn, ...], Tuple[Tuple[int, PhaseFn], ...], Optional[SpanFn]
    ]:
        """Compile to ``(cycle_fns, periodic_fns, span)`` for the run loop.

        ``cycle_fns`` are the per-cycle phases in order, one callable
        each; ``periodic_fns`` are ``(every, fn)`` pairs the loop runs
        after advancing the cycle counter, when ``cycle % every == 0``.
        ``span`` is the registered fusion when it may stand in for
        ``cycle_fns`` between two periodic boundaries, else ``None``: it
        must cover every per-cycle phase, and none of them may be
        observed — by a hook, by *timer*, or by a ``fn`` replaced since
        :meth:`fuse` (how outside instrumentation wraps a phase).
        """
        per_cycle = tuple(p for p in self._phases if p.every is None)
        cycle_fns = tuple(p.compiled(timer) for p in per_cycle)
        periodic = tuple(
            (p.every, p.compiled(timer))
            for p in self._phases
            if p.every is not None
        )
        span = None
        if self._fusion is not None and timer is None:
            phases, fns, fused = self._fusion
            if phases == per_cycle and all(
                p.fn is fn and not p.hooks for p, fn in zip(phases, fns)
            ):
                span = fused
        return cycle_fns, periodic, span
