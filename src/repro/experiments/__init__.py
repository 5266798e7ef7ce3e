"""Experiment drivers used by the benchmark suite and examples.

Each paper experiment (DESIGN.md §3) is a thin composition of these
drivers; the benchmarks call them with scaled-down cycle budgets and
print paper-vs-measured tables.  A single run is a
:class:`~repro.harness.JobSpec` through :func:`repro.harness.run_job`.
"""

from repro.experiments.sweeps import (
    alone_ipc,
    alone_ipc_specs,
    bench_scale,
    locality_sweep,
    pairwise_ipf_grid,
    scaled_cycles,
    scaling_specs,
    scaling_sweep,
    static_throttle_sweep,
    workload_batch_comparison,
)
from repro.experiments.tables import format_table, paper_vs_measured

__all__ = [
    "alone_ipc",
    "alone_ipc_specs",
    "bench_scale",
    "scaled_cycles",
    "static_throttle_sweep",
    "scaling_specs",
    "scaling_sweep",
    "locality_sweep",
    "pairwise_ipf_grid",
    "workload_batch_comparison",
    "format_table",
    "paper_vs_measured",
]
