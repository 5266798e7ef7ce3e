"""Parallel sweep executor with caching and progress telemetry.

:func:`run_jobs` is the one entry point: give it a list of
:class:`~repro.harness.jobs.JobSpec` and it returns a
:class:`HarnessReport` whose ``results`` align 1:1 with the input specs.

Execution strategy:

- every spec is first looked up in the optional
  :class:`~repro.harness.cache.ResultCache`; hits never execute;
- the parent picks each pending spec's backend
  (:func:`~repro.harness.jobs.resolve`), named in its :class:`JobRecord`,
  and starts them longest predicted first
  (:func:`~repro.harness.jobs.predicted_cost`);
- the remaining specs run on a ``ProcessPoolExecutor`` when
  ``jobs > 1`` (its workers call :func:`~repro.harness.jobs.run_job`),
  or inline when ``jobs == 1`` — the serial path exists both as a
  fallback for restricted environments and as the reference the
  determinism tests compare against;
- that pool is **kept**: the first parallel call of a process creates
  it, ``jobs`` wide, and every later call with the same ``jobs`` reuses
  its workers, so a sweep made of many short calls pays the fork, the
  imports and the first-job page faults once instead of once per call.
  It goes away in exactly four ways: a call asking for a different
  ``jobs`` replaces it, a worker death or an exception in the parent
  drops it (the next call forks afresh), :func:`shutdown_workers`
  releases it on demand, and ``concurrent.futures``' own exit hook
  joins it when the interpreter ends.  Kept workers are a **snapshot of
  the process at their fork** — what ``spawn``/``forkserver`` platforms
  have always had — so whatever a job must see travels in its
  ``JobSpec`` or as an argument; code that changes module state between
  sweeps (a test's monkeypatch) calls :func:`shutdown_workers` first.
  One sweep at a time per process: the pool is module state, not
  guarded against ``run_jobs`` calls racing from several threads.  A
  ``multiprocessing`` child keeps nothing (its exit would wait for the
  idle workers): there every call still gets its own pool;
- because a job derives every RNG stream from its spec, parallel
  execution is bit-identical to serial: there is no shared mutable
  state to race on, only an embarrassingly parallel fan-out;
- a :class:`~repro.guardrails.errors.GuardrailError` inside one job
  (livelock, invariant violation, wall-clock timeout) marks that job
  failed (``result is None``) without sinking the sweep; every other
  exception propagates, since it indicates a bug rather than a
  diverging simulation.  Completed points are cached as they finish, so
  a crashed or aborted sweep resumes from where it stopped;
- a **worker process dying mid-job** (OOM kill, segfault, ``os._exit``)
  breaks the whole ``ProcessPoolExecutor`` and poisons every in-flight
  future.  Instead of sinking the sweep, each affected job is re-run
  once in its own fresh single-worker pool — never the kept one:
  isolation is the point — so innocent bystanders complete normally,
  and only the job that kills its worker *again* is recorded failed;
- an **exception in the parent** while jobs are in flight (a
  ``progress`` callable, a cache write on a full disk, Ctrl-C) cancels
  every job that has not started, does not wait for those that have,
  and propagates at once instead of after the rest of the sweep;
- each job gets an optional **wall-clock timeout** (``timeout_s=`` or
  ``$REPRO_JOB_TIMEOUT_S``, resolved once in the parent and passed to
  the worker), enforced inside the worker with a timer thread, so one
  wedged simulation cannot stall a sweep forever — the timed-out job is
  recorded failed like a guardrail abort.
"""

from __future__ import annotations

import _thread
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.guardrails.errors import GuardrailError
from repro.harness.cache import ResultCache
from repro.harness.jobs import JobSpec, predicted_cost, resolve, run_job
from repro.sim.results import SimulationResult

__all__ = ["run_jobs", "shutdown_workers", "HarnessReport", "JobRecord",
           "default_jobs", "job_timeout_s"]


def default_jobs() -> int:
    """Worker count from the ``REPRO_JOBS`` environment variable.

    Defaults to 1 (serial) so library users opt in to parallelism; the
    CLI's ``--jobs`` flag overrides it.  ``REPRO_JOBS=0`` means "all
    cores".
    """
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    return resolve_jobs(jobs)


def resolve_jobs(jobs: int) -> int:
    """Normalize a worker-count request (``<= 0`` selects all cores)."""
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass
class JobRecord:
    """Telemetry for one job: where its result came from and how long."""

    label: str
    key: str  # spec content hash
    cached: bool
    seconds: float  # execution time (0.0 for cache hits)
    error: Optional[str] = None  # GuardrailError message, if the job failed
    backend: Optional[str] = None  # what ran it (None for cache hits)
    refusal: Optional[str] = None  # why resolve() picked numpy

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class HarnessReport:
    """Outcome of one :func:`run_jobs` call."""

    results: List[Optional[SimulationResult]]
    records: List[JobRecord]
    workers: int
    wall_seconds: float
    description: str = "sweep"
    cache_stats: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.cached)

    @property
    def executed(self) -> int:
        return sum(1 for r in self.records if not r.cached)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.error is not None)

    @property
    def all_cached(self) -> bool:
        return self.total > 0 and self.cache_hits == self.total

    @property
    def job_seconds(self) -> float:
        """Total per-job execution time (> wall time when parallel)."""
        return sum(r.seconds for r in self.records)

    def summary(self) -> str:
        return (
            f"[{self.description}] {self.total} jobs: "
            f"{self.cache_hits} cache hits, {self.executed} executed, "
            f"{self.failed} failed; wall {self.wall_seconds:.2f}s "
            f"(job time {self.job_seconds:.2f}s, {self.workers} worker"
            f"{'s' if self.workers != 1 else ''})"
        )


def job_timeout_s() -> Optional[float]:
    """Per-job wall-clock budget from ``$REPRO_JOB_TIMEOUT_S`` (seconds).

    Unset, empty, or non-positive means no timeout.
    """
    raw = os.environ.get("REPRO_JOB_TIMEOUT_S", "").strip()
    if not raw:
        return None
    value = float(raw)
    return value if value > 0 else None


def _interrupt_main_thread() -> None:
    """Raise KeyboardInterrupt in the process's main thread, now.

    A real ``SIGINT`` via ``pthread_kill`` interrupts even a blocking C
    call (a stuck filesystem read, a wedged native extension), which
    ``_thread.interrupt_main``'s interpreter-level flag cannot; the
    flag is the fallback where pthread signals are unavailable.
    """
    try:
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
    except (AttributeError, ProcessLookupError, RuntimeError, OSError):
        _thread.interrupt_main()


def _timed_run(
    spec: JobSpec,
    timeout_s: Optional[float] = None,
) -> Tuple[Optional[SimulationResult], float, Optional[str]]:
    """Worker entry point: run one spec, returning (result, secs, error).

    Guardrail aborts come back as strings — exception instances with
    custom constructors do not all survive pickling, and the parent
    only needs the message for the job record.

    ``timeout_s`` (``None``: no budget; :func:`run_jobs` resolves
    ``$REPRO_JOB_TIMEOUT_S`` and passes the number, because a kept
    worker's environment is the one it was forked with) arms a daemon
    timer that interrupts the worker's main thread when the budget
    expires; the interrupted job is reported as a failure string like
    any guardrail abort.  A real Ctrl-C (no expired timer) still
    propagates.
    """
    start = time.perf_counter()
    timer: Optional[threading.Timer] = None
    if timeout_s is not None and timeout_s > 0:
        timer = threading.Timer(timeout_s, _interrupt_main_thread)
        timer.daemon = True
        timer.start()
    try:
        result = run_job(spec)
        return result, time.perf_counter() - start, None
    except GuardrailError as error:
        return None, time.perf_counter() - start, f"{type(error).__name__}: {error}"
    except KeyboardInterrupt:
        if timer is None or not timer.finished.is_set():
            raise
        return (
            None,
            time.perf_counter() - start,
            f"JobTimeout: exceeded wall-clock budget of {timeout_s:g}s",
        )
    finally:
        if timer is not None:
            timer.cancel()


#: This process's kept pool: ``(owner pid, width, executor)``.  The pid
#: makes a forked child see "no pool" instead of its parent's executor
#: object, whose manager thread and pipes belong to the parent.
_pool: Optional[Tuple[int, int, ProcessPoolExecutor]] = None


def _kept_pool(jobs: int) -> ProcessPoolExecutor:
    """The process's pool of *jobs* workers, created on first use.

    Sized by the caller's ``jobs``, not by how many specs are pending: a
    short last column must not resize it, and a call asking for another
    width replaces it rather than run on more workers than it asked for.
    """
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), jobs):
        _drop_pool(wait=True)
        _pool = (os.getpid(), jobs, ProcessPoolExecutor(max_workers=jobs))
    return _pool[2]


def _drop_pool(wait: bool) -> None:
    global _pool
    kept, _pool = _pool, None
    if kept is not None and kept[0] == os.getpid():
        kept[2].shutdown(wait=wait)


def shutdown_workers() -> None:
    """Release the worker processes :func:`run_jobs` keeps between calls.

    Returns once they have exited.  Idempotent, and a no-op in a process
    that did not create the pool (a forked child).  The next parallel
    ``run_jobs`` call forks new workers, which see the process as it is
    *then* — call this after changing module state that jobs must
    observe.  Never required for a clean exit: ``concurrent.futures``
    joins the pool when the interpreter ends.
    """
    _drop_pool(wait=True)


class _Progress:
    """Live one-line progress meter on stderr."""

    def __init__(self, enabled: bool, description: str, total: int):
        self.enabled = enabled
        self.description = description
        self.total = total
        self.done = 0
        self.hits = 0
        self.failed = 0
        self.start = time.perf_counter()

    def update(self, record: JobRecord) -> None:
        self.done += 1
        self.hits += int(record.cached)
        self.failed += int(record.error is not None)
        if not self.enabled:
            return
        elapsed = time.perf_counter() - self.start
        line = (
            f"\r[{self.description}] {self.done}/{self.total} jobs  "
            f"{self.hits} cached  {self.done - self.hits} run  "
            f"{self.failed} failed  {elapsed:.1f}s"
        )
        sys.stderr.write(line)
        sys.stderr.flush()

    def finish(self) -> None:
        if self.enabled and self.total:
            sys.stderr.write("\n")
            sys.stderr.flush()


def run_jobs(
    specs: Sequence[JobSpec],
    jobs: Optional[int] = None,
    cache: Union[ResultCache, str, os.PathLike, None, bool] = None,
    progress: Union[bool, Callable[[JobRecord], None]] = False,
    description: str = "sweep",
    timeout_s: Optional[float] = None,
) -> HarnessReport:
    """Execute *specs*, in parallel and against the cache; the misses
    start longest predicted first, the results come back in order.

    Parameters
    ----------
    specs:
        The experiment points.  ``results[i]`` in the returned report
        corresponds to ``specs[i]``.
    jobs:
        Worker processes; ``1`` runs inline (serial fallback), ``<= 0``
        uses every core, ``None`` reads ``$REPRO_JOBS`` (default 1).
        The workers outlive the call and serve the next one that asks
        for the same ``jobs`` (module docstring: they are a snapshot of
        this process at their fork; :func:`shutdown_workers` releases
        them).
    cache:
        A :class:`ResultCache`, a directory path to build one in,
        ``None`` to read ``$REPRO_CACHE_DIR`` (no caching when unset),
        or ``False`` to force caching off.
    progress:
        ``True`` draws a live progress line on stderr; a callable is
        invoked with each finished :class:`JobRecord` instead (testing /
        custom UIs).
    description:
        Tag used in the progress line and report summary.
    timeout_s:
        Per-job wall-clock budget in seconds; a job over budget is
        interrupted and recorded failed.  ``None`` reads
        ``$REPRO_JOB_TIMEOUT_S`` (no timeout when unset).
    """
    specs = list(specs)
    for spec in specs:
        if not isinstance(spec, JobSpec):
            raise TypeError(f"expected JobSpec, got {type(spec).__name__}")
    result_cache: Optional[ResultCache]
    if isinstance(cache, ResultCache):
        result_cache = cache
    elif isinstance(cache, bool):
        # Only ``False`` is documented; a bare ``True`` names no
        # directory to build a cache in, so both mean "no cache".
        result_cache = None
    elif cache is None:
        env_dir = os.environ.get("REPRO_CACHE_DIR") or None
        result_cache = ResultCache(env_dir) if env_dir else None
    else:
        result_cache = ResultCache(cache)
    jobs = default_jobs() if jobs is None else resolve_jobs(jobs)
    if timeout_s is None:
        timeout_s = job_timeout_s()

    results: List[Optional[SimulationResult]] = [None] * len(specs)
    by_index: Dict[int, JobRecord] = {}
    on_record = progress if callable(progress) else None
    meter = _Progress(progress is True, description, len(specs))
    start = time.perf_counter()

    # ---- cache pass ---------------------------------------------------
    pending: List[int] = []
    for i, spec in enumerate(specs):
        hit = result_cache.get(spec) if result_cache is not None else None
        if hit is not None:
            results[i] = hit
            record = JobRecord(
                label=spec.label(),
                key=spec.content_hash(),
                cached=True,
                seconds=0.0,
            )
            by_index[i] = record
            meter.update(record)
            if on_record:
                on_record(record)
        else:
            pending.append(i)

    # ---- execution pass ----------------------------------------------
    runs = {i: resolve(specs[i]) for i in pending}
    pending.sort(key=lambda i: predicted_cost(runs[i][0]), reverse=True)

    def finish(
        i: int,
        result: Optional[SimulationResult],
        seconds: float,
        error: Optional[str],
    ) -> None:
        results[i] = result
        record = JobRecord(
            label=specs[i].label(),
            key=specs[i].content_hash(),
            cached=False,
            seconds=seconds,
            error=error,
            backend=dict(runs[i][0].config)["backend"],
            refusal=runs[i][1],
        )
        by_index[i] = record
        if result_cache is not None and result is not None:
            result_cache.put(specs[i], result)
        meter.update(record)
        if on_record:
            on_record(record)

    workers = min(jobs, len(pending)) if pending else jobs
    if workers <= 1:
        for i in pending:
            finish(i, *_timed_run(runs[i][0], timeout_s))
    else:
        broken: List[int] = []
        pool = _kept_pool(jobs)
        futures: Dict[Future, int] = {}
        try:
            for i in pending:
                try:
                    futures[pool.submit(_timed_run, runs[i][0], timeout_s)] = i
                except BrokenProcessPool:
                    # A kept worker died between two calls.
                    broken.append(i)
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # A worker died (OOM kill, segfault, os._exit):
                        # this future and every other in-flight one are
                        # poisoned regardless of whose job was at fault.
                        broken.append(futures[future])
                        continue
                    finish(futures[future], *outcome)
        except BaseException:
            # A progress callable, a cache write or Ctrl-C raised: what
            # has not started must not run and what has is not worth
            # waiting for.  Cancelled here, future by future, because
            # ``shutdown(wait=False, cancel_futures=True)`` cancels
            # nothing once the executor object is unreferenced.  Only
            # the calls the executor already moved to its call queue
            # (jobs + 1 slots) still execute.
            for future in futures:
                future.cancel()
            _drop_pool(wait=False)
            raise
        if broken or multiprocessing.parent_process() is not None:
            # Broken: the next call forks healthy workers.  Inside a
            # multiprocessing child nothing may be kept: such a process
            # joins its own children *before* concurrent.futures' exit
            # hook runs, so idle workers would hang its exit.
            _drop_pool(wait=True)
        # Re-run each poisoned job once, isolated in its own fresh
        # single-worker pool: bystanders of the crash complete
        # normally, and only a job that kills its worker *again* is
        # abandoned.
        for i in sorted(broken):
            try:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    outcome = pool.submit(
                        _timed_run, runs[i][0], timeout_s
                    ).result()
            except BrokenProcessPool:
                finish(
                    i, None, 0.0,
                    "WorkerDeath: worker process died twice running "
                    "this job; abandoned",
                )
                continue
            finish(i, *outcome)

    meter.finish()
    return HarnessReport(
        results=results,
        records=[by_index[i] for i in range(len(specs))],
        workers=workers,
        wall_seconds=time.perf_counter() - start,
        description=description,
        cache_stats=result_cache.stats() if result_cache is not None else {},
    )
