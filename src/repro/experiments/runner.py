"""Single-run drivers and the alone-IPC cache for weighted speedup."""

from __future__ import annotations

import os
from typing import Dict, Optional

import numpy as np

from repro.config import SimulationConfig
from repro.control.base import Controller, NoController
from repro.sim.simulator import Simulator
from repro.sim.results import SimulationResult
from repro.traffic.workloads import Workload

__all__ = [
    "bench_scale",
    "scaled_cycles",
    "run_workload",
    "alone_ipc",
]


def bench_scale() -> float:
    """Global cycle-budget multiplier, set via ``REPRO_BENCH_SCALE``.

    The benchmark suite defaults to runs long enough for stable trends
    but far shorter than the paper's 10M cycles; set
    ``REPRO_BENCH_SCALE=4`` (for example) for higher-fidelity runs.
    """
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled_cycles(base: int) -> int:
    """Apply the bench scale to a cycle budget."""
    return max(int(base * bench_scale()), 1000)


def run_workload(
    workload: Workload,
    cycles: int,
    controller: Optional[Controller] = None,
    epoch: int = 1000,
    seed: int = 1,
    deadline: Optional[float] = None,
    **config_kw,
) -> SimulationResult:
    """Run one workload to completion and return its results.

    ``deadline`` is a per-run wall-clock budget in seconds (see
    :meth:`~repro.sim.Simulator.run`); all other keyword arguments go to
    :class:`~repro.config.SimulationConfig`.
    """
    cfg = SimulationConfig(
        workload,
        seed=seed,
        epoch=epoch,
        controller=controller if controller is not None else NoController(),
        **config_kw,
    )
    return Simulator(cfg).run(cycles, deadline=deadline)


_ALONE_CACHE: Dict[tuple, float] = {}


def alone_ipc(
    app_name: str,
    num_nodes: int,
    cycles: int = 2500,
    seed: int = 11,
    **config_kw,
) -> float:
    """IPC of *app_name* running alone in the network (for WS, §6.2).

    The application is placed at node 0 with every other node idle, so
    it sees an uncontended network.  Results are cached per
    configuration because alone-IPC is a property of the application
    and network, not of the workload mix.
    """
    key = (app_name, num_nodes, cycles, seed, tuple(sorted(config_kw.items())))
    if key not in _ALONE_CACHE:
        apps = [app_name] + [None] * (num_nodes - 1)
        workload = Workload(tuple(apps), category="ALONE")
        res = run_workload(workload, cycles, seed=seed, **config_kw)
        _ALONE_CACHE[key] = float(res.ipc[0])
    return _ALONE_CACHE[key]


def workload_alone_ipc(workload: Workload, cycles: int = 2500, **kw) -> np.ndarray:
    """Per-node alone-IPC vector for a workload."""
    out = np.zeros(workload.num_nodes)
    for i, name in enumerate(workload.app_names):
        if name is not None:
            out[i] = alone_ipc(name, workload.num_nodes, cycles=cycles, **kw)
    return out
