"""Robustness tests for the harness: worker death, parent-side
exceptions and job timeouts.

The ``needs_fork`` tests patch ``repro.harness.executor.run_job`` and
rely on the ``fork`` start method to carry the patch into pool workers;
they skip on platforms where workers are spawned fresh.  ``run_jobs``
keeps its workers between calls and a kept worker is a snapshot of the
process at its fork, so every test here starts and ends without a pool
(``fresh_workers`` in conftest.py): the patch is in place before the
workers fork, and no patched worker outlives its test.
"""

import functools
import multiprocessing
import os
import signal
import time

import pytest

from repro.harness import JobSpec, ResultCache, run_jobs
from repro.harness.executor import _timed_run, job_timeout_s
from repro.harness.jobs import run_job as real_run_job

# Full-simulation module: runs real multi-epoch simulations end to end.
# Deselect with -m 'not slow' for a fast inner loop; CI runs everything.
pytestmark = pytest.mark.slow

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="worker-death injection requires fork-inherited patches",
)

#: Sentinel seed: the patched run_job kills its worker for this spec.
CRASH_SEED = 666


@pytest.fixture(autouse=True)
def no_inherited_workers(fresh_workers):
    """Every test of this module, whatever ran before it."""


def small_spec(**overrides) -> JobSpec:
    kw = dict(app_names=("mcf",) * 16, cycles=1200, seed=1, epoch=400)
    kw.update(overrides)
    return JobSpec(**kw)


def _crash_or_run(spec):
    if spec.seed == CRASH_SEED:
        os._exit(13)  # simulate an OOM kill / segfault: no cleanup, no excuses
    return real_run_job(spec)


def _sleep_or_run(spec):
    if spec.seed == CRASH_SEED:
        time.sleep(60)
    return real_run_job(spec)


def _log_start_then_run(log_path, gate, spec):
    """Log the start; seed 1 then runs, every other seed waits for the
    file *gate* first."""
    with open(log_path, "a", encoding="utf-8") as log:
        log.write(f"{spec.seed}\n")
    time.sleep(0.3)
    while spec.seed != 1 and not gate.exists():
        time.sleep(0.01)
    return real_run_job(spec)


class TestWorkerDeath:
    @needs_fork
    def test_dead_worker_fails_only_its_job(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.run_job", _crash_or_run)
        specs = [small_spec(seed=s) for s in (1, CRASH_SEED, 2, 3)]
        report = run_jobs(specs, jobs=2, cache=False)
        victim = report.records[1]
        assert not victim.ok
        assert "WorkerDeath" in victim.error
        assert report.results[1] is None
        # Innocent bystanders — including futures poisoned by the pool
        # break — all complete.
        assert report.failed == 1
        for i in (0, 2, 3):
            assert report.records[i].ok
            assert report.results[i] is not None
            assert report.results[i].to_dict() == real_run_job(specs[i]).to_dict()

    @needs_fork
    def test_next_sweep_after_a_crash_runs_on_fresh_workers(
        self, monkeypatch, worker_pids
    ):
        monkeypatch.setattr("repro.harness.executor.run_job", _crash_or_run)
        specs = [small_spec(seed=s, cycles=300, epoch=100) for s in (1, 2, 3)]
        run_jobs(specs, jobs=2, cache=False)
        before = worker_pids()
        crashed = run_jobs(
            [*specs, small_spec(seed=CRASH_SEED)], jobs=2, cache=False
        )
        assert crashed.failed == 1
        # The broken pool is gone, not kept for the next caller to trip on.
        assert worker_pids() == set()
        after = run_jobs(specs, jobs=2, cache=False)
        assert after.failed == 0 and None not in after.results
        assert len(worker_pids()) == 2 and not worker_pids() & before

    def test_worker_killed_between_sweeps_costs_no_job(self, worker_pids):
        """A kept worker can die while idle (the OOM killer prefers
        resident processes): the next sweep must still complete."""
        specs = [small_spec(seed=s, cycles=300, epoch=100) for s in (1, 2, 3)]
        first = run_jobs(specs, jobs=2, cache=False)
        victim = min(worker_pids())
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while victim in worker_pids() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert victim not in worker_pids()
        again = run_jobs(specs, jobs=2, cache=False)
        assert again.failed == 0
        for a, b in zip(first.results, again.results):
            assert a.to_dict() == b.to_dict()
        assert run_jobs(specs, jobs=2, cache=False).failed == 0
        assert len(worker_pids()) == 2 and victim not in worker_pids()

    @needs_fork
    def test_crash_results_are_not_cached(self, monkeypatch, tmp_path):
        monkeypatch.setattr("repro.harness.executor.run_job", _crash_or_run)
        specs = [small_spec(seed=CRASH_SEED), small_spec(seed=2)]
        run_jobs(specs, jobs=2, cache=tmp_path)
        # Only the surviving job may populate the cache.
        cache = ResultCache(tmp_path)
        assert cache.get(specs[0]) is None
        assert cache.get(specs[1]) is not None


class TestParentException:
    @needs_fork
    def test_callback_error_cancels_the_rest_of_the_sweep(
        self, monkeypatch, tmp_path, worker_pids
    ):
        """An exception in the parent must not surface only after every
        queued job has run: what has not started is cancelled.  Only the
        first job can finish before the gate opens, after run_jobs has
        raised, so what was handed out is exactly countable."""
        log, gate = tmp_path / "started.txt", tmp_path / "gate"
        monkeypatch.setattr(
            "repro.harness.executor.run_job",
            functools.partial(_log_start_then_run, log, gate),
        )
        workers = 2
        specs = [small_spec(seed=s, cycles=300, epoch=100) for s in range(1, 13)]

        def refuse(_record):
            raise RuntimeError("progress callback failed")

        with pytest.raises(RuntimeError, match="progress callback failed"):
            run_jobs(specs, jobs=workers, cache=False, progress=refuse)
        gate.touch()
        # Count once the dropped workers have exited.  What cannot be
        # cancelled: the job that finished, one running per worker, and
        # the calls the executor had already moved to its call queue
        # (workers + 1 slots), the first ones submitted.  The queue is
        # refilled once, as the manager thread hands the parent the
        # first result; it holds one call fewer when the worker that
        # ran that job takes its next call only after the refill.
        deadline = time.monotonic() + 60
        while worker_pids() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert worker_pids() == set()
        started = sorted(int(seed) for seed in log.read_text().split())
        assert started == list(range(1, len(started) + 1))
        assert 1 + workers + workers <= len(started)
        assert len(started) <= 1 + workers + (workers + 1) < len(specs)
        log.write_text("")
        report = run_jobs(specs[:4], jobs=workers, cache=False)
        assert report.failed == 0 and None not in report.results
        assert sorted(log.read_text().split()) == ["1", "2", "3", "4"]


class TestJobTimeout:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOB_TIMEOUT_S", raising=False)
        assert job_timeout_s() is None
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "")
        assert job_timeout_s() is None
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "0")
        assert job_timeout_s() is None
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "2.5")
        assert job_timeout_s() == 2.5

    def test_serial_timeout_records_failure(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.run_job", _sleep_or_run)
        # The innocent job (~0.6s) fits well inside the 3s budget; the
        # wedged one sleeps 60s and must be cut off at the budget.
        specs = [small_spec(seed=CRASH_SEED),
                 small_spec(seed=2, cycles=600, epoch=300)]
        start = time.perf_counter()
        report = run_jobs(specs, jobs=1, cache=False, timeout_s=3.0)
        assert time.perf_counter() - start < 30
        assert report.results[0] is None
        assert "JobTimeout" in report.records[0].error
        # The budget is per job: the fast job still fits in it.
        assert report.records[1].ok
        assert report.results[1] is not None

    def test_env_var_applies_without_kwarg(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.run_job", _sleep_or_run)
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "1.0")
        report = run_jobs([small_spec(seed=CRASH_SEED)], jobs=1, cache=False)
        assert report.failed == 1
        assert "JobTimeout" in report.records[0].error

    @needs_fork
    def test_env_var_applies_to_workers_forked_before_it_was_set(
        self, monkeypatch, worker_pids
    ):
        """The parallel twin: the budget is resolved in the parent per
        call, not read from a kept worker's fork-time environment."""
        monkeypatch.delenv("REPRO_JOB_TIMEOUT_S", raising=False)
        monkeypatch.setattr("repro.harness.executor.run_job", _sleep_or_run)
        quick = [small_spec(seed=s, cycles=300, epoch=100) for s in (1, 2)]
        assert run_jobs(quick, jobs=2, cache=False).failed == 0
        workers = worker_pids()
        monkeypatch.setenv("REPRO_JOB_TIMEOUT_S", "1.0")
        start = time.perf_counter()
        report = run_jobs(
            [small_spec(seed=CRASH_SEED), quick[0]], jobs=2, cache=False
        )
        assert time.perf_counter() - start < 30
        assert worker_pids() == workers  # the same, kept, workers
        assert "JobTimeout" in report.records[0].error
        assert report.records[1].ok and report.results[1] is not None

    @needs_fork
    def test_parallel_timeout_does_not_break_the_pool(self, monkeypatch):
        monkeypatch.setattr("repro.harness.executor.run_job", _sleep_or_run)
        specs = [small_spec(seed=CRASH_SEED),
                 small_spec(seed=2, cycles=600, epoch=300)]
        report = run_jobs(specs, jobs=2, cache=False, timeout_s=3.0)
        assert "JobTimeout" in report.records[0].error
        assert report.records[1].ok

    def test_generous_budget_leaves_result_intact(self):
        spec = small_spec()
        result, seconds, error = _timed_run(spec, timeout_s=300.0)
        assert error is None and seconds > 0
        assert result.to_dict() == real_run_job(spec).to_dict()
        # The timer must be cancelled: no stray KeyboardInterrupt later.
        time.sleep(0.05)

    def test_real_ctrl_c_still_propagates(self, monkeypatch):
        def interrupted(_spec):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.harness.executor.run_job", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _timed_run(small_spec(), timeout_s=300.0)
