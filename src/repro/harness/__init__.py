"""repro.harness — parallel experiment orchestration with result caching.

The sweep substrate for every multi-run experiment in the repository:

- :class:`JobSpec` — an experiment point as a pure, hashable value
  (workload, network, controller recipe, cycles, seed) with a stable
  content hash;
- :func:`build` — the simulator a spec describes (the one construction
  site the CLI and the workers share); :func:`run_job` — build and run
  it to completion, deterministically;
- :class:`ResultCache` — content-addressed on-disk store keyed by
  spec hash + result-schema version + code version;
- :func:`run_jobs` — shard specs across a process pool (serial
  fallback at ``jobs=1``), reuse cached points, and report per-job
  telemetry in a :class:`HarnessReport`;
- :func:`shutdown_workers` — release the pool's worker processes, which
  ``run_jobs`` otherwise keeps warm for its next call.

Typical use::

    from repro.harness import JobSpec, ResultCache, run_jobs

    specs = [JobSpec(("mcf",) * 16, cycles=20_000, seed=s)
             for s in range(8)]
    report = run_jobs(specs, jobs=4, cache="~/.cache/repro")
    print(report.summary())
    best = max(report.results, key=lambda r: r.system_throughput)
"""

from repro.harness.cache import CODE_VERSION, ResultCache
from repro.harness.executor import (
    HarnessReport,
    JobRecord,
    default_jobs,
    resolve_jobs,
    run_jobs,
    shutdown_workers,
)
from repro.harness.jobs import JobSpec, build, run_job

__all__ = [
    "JobSpec",
    "build",
    "run_job",
    "run_jobs",
    "shutdown_workers",
    "ResultCache",
    "HarnessReport",
    "JobRecord",
    "default_jobs",
    "resolve_jobs",
    "CODE_VERSION",
]
