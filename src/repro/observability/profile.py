"""The ``python -m repro profile`` driver.

Builds the smoke configuration the subcommand runs with profiling on,
and :func:`timing_overhead` times a ``profile=True`` run (per-phase
timing enabled) against a plain one, so the caller can fail when the
:class:`~repro.observability.PhaseTimer` costs more than its budget.
Speed trajectories are the perf ledger's job
(``python3 benchmarks/perf/bench.py``); nothing here writes a file.

Kept out of ``repro.observability.__init__`` so the simulator's import
of the package never drags in the workload/driver stack (import cycle).
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["build_simulator", "timing_overhead"]


def build_simulator(nodes=64, category="H", network="bless",
                    topology="mesh", seed=1, epoch=2_000, **observe):
    """A fresh simulator on the smoke point; ``observe`` carries the
    ``profile``/``trace``/``trace_sample`` config fields."""
    from repro.config import SimulationConfig
    from repro.sim.simulator import Simulator
    from repro.traffic.workloads import make_category_workload

    workload = make_category_workload(
        category, nodes, np.random.default_rng(seed)
    )
    config = SimulationConfig(
        workload,
        seed=seed,
        epoch=epoch,
        network=network,
        topology=topology,
        **observe,
    )
    return Simulator(config)


def _timed_cps(sim, cycles: int) -> float:
    """Cycles per wall-second of one fresh run."""
    start = time.perf_counter()
    sim.run(cycles)
    return cycles / (time.perf_counter() - start)


def timing_overhead(cycles: int, repeats: int = 2, **point):
    """Per-phase timing enabled vs plain on the smoke point:
    ``(plain cycles/s, timed cycles/s, overhead in percent)``.

    Best of ``repeats`` fresh runs per side, after a warm-up.  A plain
    run takes the simulator's uninstrumented loop; ``profile=True``
    adds a :class:`~repro.observability.PhaseTimer` lap around every
    phase.  ``point`` is :func:`build_simulator`'s configuration.
    """
    build_simulator(**point).run(min(cycles, 2_000))  # imports, numpy caches
    plain = max(
        _timed_cps(build_simulator(**point), cycles) for _ in range(repeats)
    )
    timed = max(
        _timed_cps(build_simulator(**point, profile=True), cycles)
        for _ in range(repeats)
    )
    return plain, timed, (1.0 - timed / plain) * 100.0
