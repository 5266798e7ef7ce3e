"""Simulator observability: phase profiling, flit tracing, perf counters.

Three independent layers, all off by default and all near-zero cost when
disabled (the simulator keeps its uninstrumented hot loop unless a layer
is switched on through :class:`~repro.config.SimulationConfig`):

- :class:`PhaseTimer` attributes wall-clock time to each simulated phase
  (behavior tick, cores, memory, network step, ejection handling, epoch
  control), answering "where does a simulated cycle go";
- :class:`FlitTracer` records inject/hop/deflect/eject events for a
  deterministic, seedable sample of packets into a bounded ring buffer,
  answering "where did *this packet's* latency go" — the question the
  aggregate stats cannot;
- :class:`PerfCounters` is the machine-readable snapshot (cycles/sec,
  flits/sec, per-phase shares, trace volume) attached to
  :class:`~repro.sim.results.SimulationResult` and carried through the
  result cache; ``--profile`` and the ``profile`` CLI print its table.
"""

from repro.observability.counters import PerfCounters
from repro.observability.phases import PHASES, PhaseTimer
from repro.observability.tracer import (
    EVENT_NAMES,
    EV_DEFLECT,
    EV_EJECT,
    EV_HOP,
    EV_INJECT,
    FlitTracer,
)

__all__ = [
    "PHASES",
    "PhaseTimer",
    "FlitTracer",
    "PerfCounters",
    "EVENT_NAMES",
    "EV_INJECT",
    "EV_HOP",
    "EV_DEFLECT",
    "EV_EJECT",
]
