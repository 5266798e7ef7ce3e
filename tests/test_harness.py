"""Tests for repro.harness: job model, cache, and parallel executor."""

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.experiments.sweeps import scaling_sweep
from repro.harness import (
    HarnessReport,
    JobSpec,
    ResultCache,
    run_job,
    run_jobs,
    shutdown_workers,
)
from repro.harness.executor import default_jobs, resolve_jobs
from repro.sim.results import RESULT_SCHEMA_VERSION, SimulationResult

# Full-simulation module: runs real multi-epoch simulations end to end.
# Deselect with -m 'not slow' for a fast inner loop; CI runs everything.
pytestmark = pytest.mark.slow


def small_spec(**overrides) -> JobSpec:
    kw = dict(
        app_names=("mcf",) * 16,
        cycles=1200,
        seed=1,
        epoch=400,
    )
    kw.update(overrides)
    return JobSpec(**kw)


def results_equal(a: SimulationResult, b: SimulationResult) -> bool:
    return a.to_dict() == b.to_dict()


class TestJobSpec:
    def test_content_hash_is_deterministic(self):
        assert small_spec().content_hash() == small_spec().content_hash()

    def test_content_hash_literals_are_pinned(self):
        """Cache keys are the on-disk identity of every stored result:
        these three were taken before canonical() was derived from the
        dataclass fields and must never move."""
        from repro.chaos import ChaosConfig, ChaosEvent

        assert small_spec().content_hash() == (
            "45b5e943d9d3e9d898006b5c7c585d1aa845b8c1835cc8765cdf3e7c8a7eddc5"
        )
        assert JobSpec(
            ("mcf", None, "gromacs", "povray"), cycles=5000, seed=7,
            epoch=1000, controller=("hierarchical", 4, "local"),
            network="buffered", topology="torus", locality="exponential",
            locality_param=1.5, category="HM",
            config=(("profile", True), ("mshr_limit", 8)), deadline=30.0,
        ).content_hash() == (
            "176781985e907e2ae1b0ed18f94fae06db5901801ddf482a658d333ef3c9d638"
        )
        chaos = ChaosConfig(events=(
            ChaosEvent(cycle=500, kind="link_down", node=5, port=1),
        ))
        assert JobSpec(
            ("mcf",) * 16, cycles=2000, controller=("static", 0.5),
            chaos=chaos,
        ).content_hash() == (
            "27f6a17d7c45803bdbd5d5c360dda4f2157405fa144f1bedd4b37ccae0164abf"
        )

    def test_hash_differs_on_any_field(self):
        base = small_spec().content_hash()
        assert small_spec(seed=2).content_hash() != base
        assert small_spec(cycles=1300).content_hash() != base
        assert small_spec(network="buffered").content_hash() != base
        assert small_spec(controller=("central",)).content_hash() != base

    def test_hash_independent_of_config_order(self):
        a = small_spec(config=(("a", 1), ("b", 2)))
        b = small_spec(config=(("b", 2), ("a", 1)))
        assert a.content_hash() == b.content_hash()

    def test_hash_stable_across_processes(self):
        """The cache key must not depend on PYTHONHASHSEED or process
        state — it is the on-disk identity of a result."""
        script = (
            "from repro.harness import JobSpec; "
            "print(JobSpec(('mcf',)*16, cycles=1200, seed=1, "
            "epoch=400).content_hash())"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        hashes = set()
        for hashseed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env=env,
            )
            hashes.add(proc.stdout.strip())
        assert hashes == {small_spec().content_hash()}

    def test_rejects_unknown_controller(self):
        with pytest.raises(ValueError):
            small_spec(controller=("pid",))
        with pytest.raises(TypeError):
            small_spec(controller="central")

    def test_hierarchical_recipe_validation(self):
        # Every legal arity is accepted...
        for recipe in (("hierarchical",), ("hierarchical", 4),
                       ("hierarchical", 0, "local"),
                       ("hierarchical", 16, "global")):
            assert small_spec(controller=recipe).controller == recipe
        # ...and malformed domains/modes are rejected eagerly.
        with pytest.raises(ValueError, match="domain count"):
            small_spec(controller=("hierarchical", -1))
        with pytest.raises(ValueError, match="domain count"):
            small_spec(controller=("hierarchical", "four"))
        with pytest.raises(ValueError, match="domain count"):
            small_spec(controller=("hierarchical", True))
        with pytest.raises(ValueError, match="mode"):
            small_spec(controller=("hierarchical", 4, "anarchic"))
        with pytest.raises(ValueError, match="at most"):
            small_spec(controller=("hierarchical", 4, "local", "extra"))

    def test_hierarchical_recipe_builds_controller(self):
        from repro.control.hierarchical import HierarchicalController
        from repro.control.registry import build_controller

        spec = small_spec(controller=("hierarchical", 4, "local"), epoch=400)
        ctl = build_controller(spec.controller, epoch=spec.epoch)
        assert isinstance(ctl, HierarchicalController)
        assert ctl.num_domains == 4
        assert ctl.mode == "local"
        assert ctl.params.epoch == 400
        # Defaults: topology-chosen count, global reconciliation.
        default = build_controller(("hierarchical",), epoch=400)
        assert default.num_domains == 0 and default.mode == "global"

    def test_hierarchical_hash_distinguishes_layouts(self):
        base = small_spec(controller=("hierarchical",)).content_hash()
        assert small_spec(
            controller=("hierarchical", 4)
        ).content_hash() != base
        assert small_spec(
            controller=("hierarchical", 0, "local")
        ).content_hash() != base

    def test_hierarchical_hash_stable_across_processes(self):
        """The hierarchical recipe rides the same canonical-JSON hash
        contract as every other spec field."""
        spec = small_spec(controller=("hierarchical", 4, "local"))
        script = (
            "from repro.harness import JobSpec; "
            "print(JobSpec(('mcf',)*16, cycles=1200, seed=1, epoch=400, "
            "controller=('hierarchical', 4, 'local')).content_hash())"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="7")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
        )
        assert proc.stdout.strip() == spec.content_hash()

    def test_hierarchical_job_roundtrips_through_cache(self, tmp_path):
        spec = small_spec(
            app_names=("mcf",) * 64,
            controller=("hierarchical", 4, "global"),
            config=(("model_control_traffic", True), ("profile", True)),
        )
        res = run_job(spec)
        assert res.perf.control_domains == 4
        cache = ResultCache(tmp_path)
        cache.put(spec, res)
        hit = cache.get(spec)
        assert results_equal(hit, res)
        assert hit.perf.control_domains == 4
        assert hit.perf.per_domain_control_flits == \
            res.perf.per_domain_control_flits

    def test_rejects_non_scalar_config(self):
        with pytest.raises(TypeError):
            small_spec(config=(("faults", object()),))

    def test_for_workload_lifts_config_fields(self):
        from repro.traffic.workloads import make_homogeneous_workload

        wl = make_homogeneous_workload("mcf", 16)
        spec = JobSpec.for_workload(
            wl, 1200, config={"network": "buffered", "mshr_limit": 8}
        )
        assert spec.network == "buffered"
        assert spec.config == (("mshr_limit", 8),)
        assert spec.category == "H"

    def test_with_config_merges_and_rehashes(self):
        base = small_spec(config=(("mshr_limit", 8),))
        profiled = base.with_config(profile=True)
        assert profiled.config == (("mshr_limit", 8), ("profile", True))
        assert profiled.content_hash() != base.content_hash()
        # Overriding an existing scalar replaces it, everything else kept.
        assert base.with_config(mshr_limit=4).config == (("mshr_limit", 4),)
        assert base.with_config(mshr_limit=8) == base

    def test_identity_read_before_a_copy_does_not_leak_into_it(self):
        """canonical() is computed once per instance; a copy made after
        it was read must hash as a freshly built equal spec does."""
        config = (("mshr_limit", 8),)
        base = small_spec(config=config)
        base.content_hash()
        assert base.with_config(profile=True).content_hash() == small_spec(
            config=config + (("profile", True),)
        ).content_hash()
        reseeded = dataclasses.replace(base, seed=2)
        assert reseeded.canonical() != base.canonical()
        assert reseeded.content_hash() == small_spec(
            seed=2, config=config
        ).content_hash()
        # The stored text is no field: equality and hash() ignore it.
        unread = small_spec(config=config)
        assert base == unread and hash(base) == hash(unread)
        assert [f.name for f in dataclasses.fields(base)] == [
            f.name for f in dataclasses.fields(JobSpec)
        ]

    def test_run_job_matches_run_workload(self):
        from repro.experiments.runner import run_workload
        from repro.traffic.workloads import make_homogeneous_workload

        spec = small_spec()
        direct = run_workload(
            make_homogeneous_workload("mcf", 16), 1200, epoch=400, seed=1
        )
        assert results_equal(run_job(spec), direct)


class TestResultRoundtrip:
    def test_to_dict_from_dict_is_lossless(self):
        res = run_job(small_spec())
        clone = SimulationResult.from_dict(res.to_dict())
        assert results_equal(res, clone)
        np.testing.assert_array_equal(res.ipc, clone.ipc)
        np.testing.assert_array_equal(res.latency_hist, clone.latency_hist)
        assert clone.epochs == res.epochs
        assert clone.guardrails == res.guardrails
        assert clone.power == res.power

    def test_roundtrip_survives_strict_json_and_inf(self):
        # Idle nodes have ipf = inf.  The serialized form must be strict
        # RFC-8259 JSON (allow_nan=False must not raise), encoding the
        # non-finite entries as null and restoring them losslessly.
        spec = small_spec(app_names=("mcf", None) * 8)
        res = run_job(spec)
        assert np.isinf(res.ipf).any()
        text = json.dumps(res.to_dict(), allow_nan=False)
        assert "Infinity" not in text and "NaN" not in text
        clone = SimulationResult.from_dict(json.loads(text))
        assert results_equal(res, clone)
        assert np.isinf(clone.ipf).any()
        np.testing.assert_array_equal(res.ipf, clone.ipf)

    def test_result_is_picklable(self):
        # The old closure field made results unpicklable, which forbade
        # shipping them across ProcessPoolExecutor boundaries.
        res = run_job(small_spec())
        clone = pickle.loads(pickle.dumps(res))
        assert results_equal(res, clone)
        assert clone.latency_percentile(50) == res.latency_percentile(50)

    def test_percentile_from_stored_samples(self):
        res = run_job(small_spec())
        p50, p99 = res.latency_percentile(50), res.latency_percentile(99)
        assert 0 < p50 <= p99 <= res.max_net_latency

    def test_from_dict_rejects_stale_schema(self):
        payload = run_job(small_spec()).to_dict()
        payload["schema"] = RESULT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError):
            SimulationResult.from_dict(payload)


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        res = run_job(spec)
        cache.put(spec, res)
        assert spec in cache
        assert len(cache) == 1
        hit = cache.get(spec)
        assert results_equal(hit, res)
        assert cache.stats() == {"hits": 1, "misses": 0}

    def test_miss_on_absent_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(small_spec()) is None
        assert cache.stats() == {"hits": 0, "misses": 1}

    def test_spec_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        cache.put(spec, run_job(spec))
        assert cache.get(small_spec(seed=2)) is None

    def test_schema_version_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, schema_version=RESULT_SCHEMA_VERSION)
        spec = small_spec()
        old.put(spec, run_job(spec))
        bumped = ResultCache(tmp_path, schema_version=RESULT_SCHEMA_VERSION + 1)
        assert bumped.get(spec) is None
        assert bumped.key(spec) != old.key(spec)

    def test_code_version_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, code_version="1.0.0")
        spec = small_spec()
        old.put(spec, run_job(spec))
        assert ResultCache(tmp_path, code_version="2.0.0").get(spec) is None

    def test_corrupted_entry_falls_back_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        cache.put(spec, run_job(spec))
        path = cache.path(spec)
        path.write_text("{ truncated garbage")
        assert cache.get(spec) is None
        assert not path.exists()  # dropped so the rerun can replace it

    def test_truncated_payload_falls_back_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        cache.put(spec, run_job(spec))
        payload = json.loads(cache.path(spec).read_text())
        del payload["result"]["ipc"]
        cache.path(spec).write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_inactive_nodes_roundtrip_as_strict_json(self, tmp_path):
        """Regression: a run with idle nodes has ipf = inf, which the
        json module used to serialize as the non-RFC literal ``Infinity``
        — corrupting the on-disk entry for any strict parser.  The cache
        now writes with ``allow_nan=False`` and the entry must both parse
        strictly and restore the infinities exactly."""
        cache = ResultCache(tmp_path)
        spec = small_spec(app_names=("mcf", None) * 8)
        res = run_job(spec)
        assert np.isinf(res.ipf).any()
        path = cache.put(spec, res)
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text
        json.loads(text, parse_constant=lambda name: pytest.fail(
            f"non-RFC JSON constant {name!r} in cache entry"
        ))
        hit = cache.get(spec)
        assert results_equal(hit, res)
        np.testing.assert_array_equal(hit.ipf, res.ipf)

    def test_entry_is_one_strict_json_dumps_of_the_payload(
        self, tmp_path, monkeypatch
    ):
        """The stored bytes are ``json.dumps(payload, allow_nan=False)``
        of ``to_dict()`` with the histogram cut after its last non-zero
        bucket plus its width, and a non-finite float raises with
        nothing left on disk."""
        cache = ResultCache(tmp_path)
        spec = small_spec()
        res = run_job(spec)
        path = cache.put(spec, res)
        result = res.to_dict()
        last = int(np.flatnonzero(res.latency_hist)[-1])
        assert 0 < last < len(res.latency_hist) - 1
        payload = {
            "key": cache.key(spec),
            "spec": json.loads(spec.canonical()),
            "code_version": cache.code_version,
            "latency_hist_buckets": len(res.latency_hist),
            "result": dict(
                result, latency_hist=result["latency_hist"][: last + 1]
            ),
        }
        assert path.read_text(encoding="utf-8") == json.dumps(
            payload, allow_nan=False
        )
        # The full-list layout was written under code version 1.0.0; such
        # an entry sits under another key and is never served.
        old_path = ResultCache(tmp_path, code_version="1.0.0").put(spec, res)
        path.unlink()
        assert old_path != path
        assert cache.get(spec) is None
        old_path.unlink()
        poisoned = dict(result, avg_net_latency=float("inf"))
        monkeypatch.setattr(res, "to_dict", lambda: poisoned)
        with pytest.raises(ValueError):
            cache.put(spec, res)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_hit_must_be_this_keys_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec_a, spec_b = small_spec(), small_spec(seed=2)
        res_a = run_job(spec_a)
        path_a = cache.put(spec_a, res_a)
        path_b = cache.path(spec_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(path_a.read_bytes())
        assert cache.get(spec_b) is None
        assert not path_b.exists()
        assert results_equal(cache.get(spec_a), res_a)
        assert cache.stats() == {"hits": 1, "misses": 1}

    @pytest.mark.parametrize("shape", [
        "none", "all_zero", "clip_bucket_only", "bucket_900", "width_10",
    ])
    def test_histogram_shapes_roundtrip_losslessly(
        self, tmp_path, shape, cached_small_result
    ):
        hist = np.zeros(1024, dtype=np.int64)
        if shape == "none":
            hist = None
        elif shape == "clip_bucket_only":
            hist[1023] = 7
        elif shape == "bucket_900":
            hist[[3, 40, 900]] = (2, 5, 1)
        elif shape == "width_10":
            hist = np.array([0, 4, 0, 9, 1, 0, 0, 2, 0, 0], dtype=np.int64)
        res = dataclasses.replace(cached_small_result, latency_hist=hist)
        cache = ResultCache(tmp_path)
        spec = small_spec()
        path = cache.put(spec, res)
        stored = json.loads(path.read_text())
        if hist is None:
            assert stored["latency_hist_buckets"] is None
        else:
            nonzero = np.flatnonzero(hist)
            head = nonzero[-1] + 1 if nonzero.size else 0
            assert stored["latency_hist_buckets"] == len(hist)
            assert stored["result"]["latency_hist"] == hist[:head].tolist()
        hit = cache.get(spec)
        assert json.dumps(hit.to_dict()) == json.dumps(res.to_dict())
        if hist is not None:
            assert hit.latency_hist.dtype == np.int64
            np.testing.assert_array_equal(hit.latency_hist, hist)

    @pytest.mark.parametrize("network,controller", [
        ("bless", ("none",)), ("bless", ("central",)), ("buffered", ("none",)),
    ])
    def test_sweep_columns_roundtrip_losslessly_at_half_size(
        self, tmp_path, network, controller
    ):
        """A random-category 4x4 point of each column of the perf
        ledger's sweep, at its 2,000 cycles and 1,000-cycle epoch."""
        from repro.traffic.workloads import make_workload_batch

        (workload,) = make_workload_batch(1, 16, np.random.default_rng(1))
        spec = JobSpec.for_workload(
            workload, 2000, seed=1, epoch=1000, controller=controller,
            network=network,
        )
        cache = ResultCache(tmp_path)
        res = run_job(spec)
        path = cache.put(spec, res)
        hit = cache.get(spec)
        assert json.dumps(hit.to_dict()) == json.dumps(res.to_dict())
        full_list_entry = json.dumps({
            "key": cache.key(spec),
            "spec": json.loads(spec.canonical()),
            "code_version": cache.code_version,
            "result": res.to_dict(),
        }, allow_nan=False)
        assert path.stat().st_size <= len(full_list_entry) / 2

    @pytest.mark.parametrize("defect", [
        "head_longer_than_width", "width_missing", "width_negative",
        "width_float", "width_string", "width_bool", "bucket_float",
        "bucket_string", "bucket_null", "bucket_huge",
    ])
    def test_malformed_compact_entry_is_a_miss(
        self, tmp_path, defect, cached_small_result
    ):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        path = cache.put(spec, cached_small_result)
        payload = json.loads(path.read_text())
        head = payload["result"]["latency_hist"]
        width = payload["latency_hist_buckets"]
        if defect == "head_longer_than_width":
            payload["latency_hist_buckets"] = len(head) - 1
        elif defect == "width_missing":
            del payload["latency_hist_buckets"]
        elif defect.startswith("width_"):
            payload["latency_hist_buckets"] = {
                "width_negative": -width, "width_float": float(width),
                "width_string": str(width), "width_bool": True,
            }[defect]
        else:
            head[-1] = {
                "bucket_float": head[-1] + 0.5, "bucket_string": str(head[-1]),
                "bucket_null": None, "bucket_huge": 2**70,
            }[defect]
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None
        assert cache.stats() == {"hits": 0, "misses": 1}
        assert not path.exists()

    @pytest.fixture(scope="class")
    def cached_small_result(self):
        return run_job(small_spec())


class TestRunJobs:
    def test_results_align_with_specs(self, tmp_path):
        specs = [small_spec(seed=s) for s in (3, 1, 2)]
        report = run_jobs(specs, jobs=1, cache=False)
        assert isinstance(report, HarnessReport)
        assert len(report.results) == 3
        for spec, res in zip(specs, report.results):
            assert results_equal(res, run_job(spec))

    def test_cache_hit_skips_execution(self, tmp_path, monkeypatch):
        spec = small_spec()
        report = run_jobs([spec], jobs=1, cache=tmp_path)
        assert report.executed == 1 and report.cache_hits == 0

        # Poison execution: any attempt to actually run must blow up.
        def boom(_spec):
            raise AssertionError("cache hit must not execute the job")

        monkeypatch.setattr("repro.harness.executor.run_job", boom)
        warm = run_jobs([spec], jobs=1, cache=tmp_path)
        assert warm.cache_hits == 1 and warm.executed == 0
        assert warm.all_cached
        assert results_equal(warm.results[0], report.results[0])

    def test_spec_change_causes_execution(self, tmp_path):
        run_jobs([small_spec()], jobs=1, cache=tmp_path)
        report = run_jobs([small_spec(cycles=1300)], jobs=1, cache=tmp_path)
        assert report.executed == 1

    def test_guardrail_abort_records_failure(self):
        # A zero wall-clock budget trips SimulationTimeout immediately;
        # the sweep records the failure and keeps going.
        specs = [small_spec(deadline=0.0), small_spec()]
        report = run_jobs(specs, jobs=1, cache=False)
        assert report.results[0] is None
        assert report.failed == 1
        assert "SimulationTimeout" in report.records[0].error
        assert report.results[1] is not None
        assert "1 failed" in report.summary()

    def test_failed_jobs_are_not_cached(self, tmp_path):
        spec = small_spec(deadline=0.0)
        run_jobs([spec], jobs=1, cache=tmp_path)
        cache = ResultCache(tmp_path)
        assert cache.get(spec) is None

    def test_progress_callback_sees_every_record(self):
        seen = []
        run_jobs([small_spec(), small_spec(seed=2)], jobs=1,
                 cache=False, progress=seen.append)
        assert len(seen) == 2
        assert all(not r.cached and r.ok and r.seconds > 0 for r in seen)

    def test_rejects_non_spec_input(self):
        with pytest.raises(TypeError):
            run_jobs(["not a spec"], jobs=1, cache=False)

    def test_jobs_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() == 1
        assert resolve_jobs(0) >= 1

    def test_cache_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_jobs([small_spec()], jobs=1)
        assert len(ResultCache(tmp_path)) == 1
        # cache=False forces caching off even with the env var set.
        run_jobs([small_spec(seed=9)], jobs=1, cache=False)
        assert len(ResultCache(tmp_path)) == 1

    def test_profiled_spec_result_carries_perf(self, tmp_path):
        spec = small_spec().with_config(profile=True)
        report = run_jobs([spec], jobs=1, cache=tmp_path)
        assert report.results[0].perf is not None
        assert report.results[0].perf.cycles == 1200
        # And the perf snapshot survives the on-disk cache round-trip.
        warm = run_jobs([spec], jobs=1, cache=tmp_path)
        assert warm.all_cached
        assert warm.results[0].perf is not None
        assert warm.results[0].perf.cycles == 1200


class TestParallelDeterminism:
    def test_parallel_run_jobs_matches_serial(self):
        specs = [small_spec(seed=s, cycles=1100) for s in (1, 2, 3, 4)]
        serial = run_jobs(specs, jobs=1, cache=False)
        parallel = run_jobs(specs, jobs=4, cache=False)
        assert serial.workers == 1 and parallel.workers == 4
        for a, b in zip(serial.results, parallel.results):
            assert results_equal(a, b)

    def test_distributed_spec_serial_parallel_and_cache_agree(self, tmp_path):
        """The §6.6 scheme is an ordinary recipe: it hashes, crosses the
        process boundary and is served from the cache like any other."""
        specs = [
            small_spec(seed=s, controller=("distributed",)) for s in (1, 2)
        ]
        serial = run_jobs(specs, jobs=1, cache=tmp_path)
        parallel = run_jobs(specs, jobs=2, cache=False)
        cached = run_jobs(specs, jobs=1, cache=tmp_path)
        assert serial.executed == 2 and cached.all_cached
        for a, b, c in zip(serial.results, parallel.results, cached.results):
            assert results_equal(a, b) and results_equal(a, c)
        # ...and it is the distributed scheme that ran, not the baseline.
        assert not results_equal(
            serial.results[0], run_job(small_spec(seed=1))
        )

    def test_scaling_sweep_parallel_identical_to_serial(self):
        """Satellite: a 3-point scaling_sweep with jobs=4 is numerically
        identical to jobs=1 — same seeds, same epochs, same arrays."""
        kw = dict(
            cycles_for=lambda n: 1200,
            networks=("bless",),
            epoch=400,
            seed=2,
        )
        serial = scaling_sweep((16, 25, 36), cache=False, jobs=1, **kw)
        parallel = scaling_sweep((16, 25, 36), cache=False, jobs=4, **kw)
        assert [s for s, _ in serial["bless"]] == [16, 25, 36]
        for (size_s, res_s), (size_p, res_p) in zip(
            serial["bless"], parallel["bless"]
        ):
            assert size_s == size_p
            assert results_equal(res_s, res_p)
            np.testing.assert_array_equal(res_s.ipc, res_p.ipc)
            assert res_s.epochs == res_p.epochs


def dicts(report: HarnessReport) -> list:
    return [result.to_dict() for result in report.results]


#: What a user's script does: two parallel sweeps, then it just ends —
#: in the main process, or (``child``) in a ``multiprocessing.Process``.
#: Prints a digest of the results and the pids of the workers that were
#: alive after each sweep.  argv: start method, ``main`` | ``child``.
TWO_SWEEPS_SCRIPT = """
import hashlib, json, multiprocessing, sys
from repro.harness import JobSpec, run_jobs

def sweeps():
    specs = [JobSpec(("mcf",) * 16, cycles=300, seed=s, epoch=100)
             for s in (1, 2, 3)]
    pids, texts = set(), set()
    for _ in range(2):
        report = run_jobs(specs, jobs=2, cache=False)
        texts.add(json.dumps([r.to_dict() for r in report.results]))
        pids |= {p.pid for p in multiprocessing.active_children()}
    (text,) = texts
    print(hashlib.sha256(text.encode()).hexdigest(), *sorted(pids))

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    if sys.argv[2] == "child":
        child = multiprocessing.Process(target=sweeps)
        child.start()
        child.join()
        sys.exit(child.exitcode)
    sweeps()
"""


def run_two_sweeps(tmp_path, method: str, where: str) -> list:
    """TWO_SWEEPS_SCRIPT's output words; fails if it does not exit."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    script = tmp_path / "two_sweeps.py"
    script.write_text(TWO_SWEEPS_SCRIPT)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, str(script), method, where],
        env=dict(os.environ, PYTHONPATH=src), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,  # so a hung tree can be killed whole
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{method}/{where}: the script never exited")
    assert proc.returncode == 0, err
    return out.split()


@pytest.mark.usefixtures("fresh_workers")
class TestKeptWorkers:
    """run_jobs keeps its pool between calls; every way it ends."""

    def test_same_jobs_reuses_workers_and_new_jobs_replaces_them(
        self, worker_pids
    ):
        specs = [small_spec(seed=s, cycles=300, epoch=100) for s in (1, 2, 3, 4)]
        serial = dicts(run_jobs(specs, jobs=1, cache=False))
        assert worker_pids() == set()  # jobs=1 never forks
        first = run_jobs(specs, jobs=2, cache=False)
        pair = worker_pids()
        second = run_jobs(specs[:3], jobs=2, cache=False)
        assert len(pair) == 2 and worker_pids() == pair
        third = run_jobs(specs, jobs=3, cache=False)
        trio = worker_pids()
        assert len(trio) == 3 and not trio & pair
        assert (first.workers, second.workers, third.workers) == (2, 2, 3)
        assert dicts(first) == serial and dicts(third) == serial
        assert dicts(second) == serial[:3]
        # One pending spec runs inline and leaves the pool alone.
        assert run_jobs(specs[:1], jobs=2, cache=False).workers == 1
        assert worker_pids() == trio

    def test_shutdown_workers_is_idempotent(self, worker_pids):
        specs = [small_spec(seed=s, cycles=300, epoch=100) for s in (1, 2)]
        shutdown_workers()  # nothing to release yet
        run_jobs(specs, jobs=2, cache=False)
        assert len(worker_pids()) == 2
        shutdown_workers()
        assert worker_pids() == set()
        shutdown_workers()
        report = run_jobs(specs, jobs=2, cache=False)
        assert report.failed == 0 and len(worker_pids()) == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_pool(self, worker_pids):
        specs = [small_spec(seed=s, cycles=300, epoch=100) for s in (1, 2, 3)]
        reference = dicts(run_jobs(specs, jobs=2, cache=False))
        parents = worker_pids()
        child = os.fork()
        if child == 0:
            code = 1
            try:
                same = dicts(run_jobs(specs, jobs=2, cache=False)) == reference
                shutdown_workers()  # its own; os._exit runs no exit hook
                code = 0 if same else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 120
        finished, status = os.waitpid(child, os.WNOHANG)
        while not finished and time.monotonic() < deadline:
            time.sleep(0.05)
            finished, status = os.waitpid(child, os.WNOHANG)
        if not finished:
            os.kill(child, 9)
            os.waitpid(child, 0)
        assert finished and os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        # The parent's workers were neither used nor released by it.
        assert worker_pids() == parents
        assert dicts(run_jobs(specs, jobs=2, cache=False)) == reference
        assert worker_pids() == parents

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_interpreter_exit_releases_the_workers(self, method, tmp_path):
        digest, *pids = run_two_sweeps(tmp_path, method, "main")
        specs = [small_spec(seed=s, cycles=300, epoch=100) for s in (1, 2, 3)]
        serial = json.dumps(dicts(run_jobs(specs, jobs=1, cache=False)))
        assert digest == hashlib.sha256(serial.encode()).hexdigest()
        assert len(pids) == 2  # both sweeps ran on the same two workers
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(int(pid), 0)

    def test_multiprocessing_child_keeps_no_workers_and_exits(self, tmp_path):
        """Such a child joins its own children before concurrent.futures'
        exit hook runs: workers kept there would hang its exit."""
        method = multiprocessing.get_start_method()
        _digest, *kept = run_two_sweeps(tmp_path, method, "child")
        assert kept == []  # no worker outlived its call

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads /proc/PID/status"
    )
    def test_kept_workers_do_not_grow_with_the_number_of_sweeps(self, worker_pids):
        def peak_mb() -> dict:
            peaks = {}
            for pid in worker_pids():
                status = pathlib.Path(f"/proc/{pid}/status").read_text()
                (line,) = [
                    x for x in status.splitlines() if x.startswith("VmHWM:")
                ]
                peaks[pid] = int(line.split()[1]) / 1024.0
            return peaks

        # Four jobs a sweep, so both workers have run some by the first
        # reading; tiny ones, whose allocator settles within the bound.
        specs = [
            small_spec(app_names=("mcf",) * 4, seed=s, cycles=50, epoch=25)
            for s in (1, 2, 3, 4)
        ]
        for _ in range(2):
            run_jobs(specs, jobs=2, cache=False)
        early = peak_mb()
        for _ in range(48):
            run_jobs(specs, jobs=2, cache=False)
        late = peak_mb()
        assert len(early) == 2 and late.keys() == early.keys()
        for pid, peak in late.items():
            assert peak - early[pid] < 2.0, (early, late)
