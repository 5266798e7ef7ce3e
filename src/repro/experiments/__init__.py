"""Experiment drivers behind the paper's figures and the examples.

Each paper experiment (DESIGN.md §3) is one entry of the figure
registry, :mod:`repro.experiments.figures`, built from these drivers at
a cycle-budget scale; ``python -m repro figure`` regenerates and checks
its paper-vs-measured report.  The registry is imported on that path
only, not from here.  A driver returns a :class:`Plan` and runs
nothing: ``plan.run(jobs=4)`` runs it.  A single run is a
:class:`~repro.harness.JobSpec` through :func:`repro.harness.run_job`.
"""

from repro.experiments.sweeps import (
    Plan,
    alone_ipc,
    alone_ipc_specs,
    locality_sweep,
    pairwise_ipf_grid,
    scaled_cycles,
    scaling_sweep,
    static_throttle_sweep,
    workload_batch_comparison,
)
from repro.experiments.tables import format_table, paper_vs_measured

__all__ = [
    "Plan",
    "alone_ipc",
    "alone_ipc_specs",
    "scaled_cycles",
    "static_throttle_sweep",
    "scaling_sweep",
    "locality_sweep",
    "pairwise_ipf_grid",
    "workload_batch_comparison",
    "format_table",
    "paper_vs_measured",
]
