"""Tests for repro.runtime — the parallel execution engine and result cache.

Pins the three contracts the subsystem exists for:

* determinism — sweep / mean-field Monte-Carlo / DES replication results
  are bit-identical for ``jobs=1`` vs ``jobs=4``;
* caching — a warm run returns the exact cold-run object, observable via
  ``repro.obs`` cache events;
* resilience — a task that raises or hangs is retried on a fresh worker
  and reported as a structured failure without killing the batch.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.obs import MetricsRegistry, ObsRecorder, use_recorder
from repro.runtime import (
    ResultCache,
    TaskRunner,
    TaskSpec,
    canonical_json,
    canonicalize,
    content_digest,
    derive_seeds,
    function_qualname,
    run_tasks,
)


# --- module-level task functions (the process backend and the cache need
# --- importable names; lambdas are rejected by design).

def _square(value, seed):
    return value * value


def _seeded_draw(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


def _raise_always(seed):
    raise ValueError("deliberate failure")


def _hang(seconds, seed):
    time.sleep(seconds)
    return "finished"


_FLAKY_CALLS = {"count": 0}


def _flaky_inline(seed):
    # Only meaningful on the inline backend (shared interpreter state).
    _FLAKY_CALLS["count"] += 1
    if _FLAKY_CALLS["count"] == 1:
        raise RuntimeError("first attempt fails")
    return "recovered"


class TestCanonical:
    def test_dict_order_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_tuple_equals_list(self):
        assert canonical_json((1, 2)) == canonical_json([1, 2])

    def test_numpy_scalars_lowered(self):
        assert canonical_json(np.float64(1.5)) == canonical_json(1.5)
        assert canonical_json(np.int64(3)) == canonical_json(3)

    def test_arrays_content_addressed(self):
        a = canonicalize(np.arange(4.0))
        b = canonicalize(np.arange(4.0))
        c = canonicalize(np.arange(5.0))
        assert a == b != c
        assert "sha256" in a["__ndarray__"]

    def test_seedsequence_identity(self):
        a = np.random.SeedSequence(7)
        b = np.random.SeedSequence(7)
        c = np.random.SeedSequence(8)
        assert canonical_json(a) == canonical_json(b) != canonical_json(c)

    def test_plain_objects_and_dataclasses(self):
        from repro.population.distributions import Uniform
        from repro.simulation.measurement import MeasurementConfig
        assert canonical_json(Uniform(0, 1)) == canonical_json(Uniform(0, 1))
        assert canonical_json(Uniform(0, 1)) != canonical_json(Uniform(0, 2))
        assert "MeasurementConfig" in canonical_json(MeasurementConfig())

    def test_unrepresentable_rejected(self):
        with pytest.raises(TypeError):
            canonicalize(open)  # builtin-function: no stable value identity
        with pytest.raises(TypeError):
            canonicalize({1: "non-string key"})

    def test_lambda_rejected_as_task_name(self):
        with pytest.raises(TypeError):
            function_qualname(lambda: None)
        assert function_qualname(_square).endswith("_square")

    def test_digest_is_stable_hex(self):
        digest = content_digest({"x": 1})
        assert digest == content_digest({"x": 1})
        assert len(digest) == 64


class TestDeriveSeeds:
    def test_children_fixed_by_index(self):
        a = derive_seeds(0, 4)
        b = derive_seeds(0, 4)
        for left, right in zip(a, b):
            assert left.entropy == right.entropy
            assert left.spawn_key == right.spawn_key

    def test_children_differ_across_index(self):
        seeds = derive_seeds(0, 3)
        draws = [np.random.default_rng(s).random() for s in seeds]
        assert len(set(draws)) == 3

    def test_generator_root_supported(self):
        a = derive_seeds(np.random.default_rng(1), 3)
        b = derive_seeds(np.random.default_rng(1), 3)
        assert [s.entropy for s in a] == [s.entropy for s in b]

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            derive_seeds(0, -1)


class TestRunnerBasics:
    def test_inline_results_in_order(self):
        results = run_tasks(_square, [{"value": v} for v in (3, 1, 2)])
        assert [r.unwrap() for r in results] == [9, 1, 4]
        assert all(r.ok and r.attempts == 1 for r in results)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_backends_match_inline(self, backend):
        inline = run_tasks(_seeded_draw, [{"n": 5}] * 4, seed=9)
        pooled = run_tasks(_seeded_draw, [{"n": 5}] * 4, seed=9,
                           jobs=4, backend=backend)
        for a, b in zip(inline, pooled):
            np.testing.assert_array_equal(a.unwrap(), b.unwrap())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TaskRunner(jobs=0)
        with pytest.raises(ValueError):
            TaskRunner(backend="carrier-pigeon")
        with pytest.raises(ValueError):
            TaskRunner(timeout=0)
        with pytest.raises(ValueError):
            TaskRunner(retries=-1)
        with pytest.raises(ValueError):
            run_tasks(_square, [{"value": 1}], seeds=[1, 2])

    def test_unwrap_raises_with_context(self):
        result = TaskRunner(retries=0).run([TaskSpec(_raise_always, seed=1)])[0]
        with pytest.raises(RuntimeError, match="deliberate failure"):
            result.unwrap()


class TestDeterminismAcrossJobs:
    """(a) jobs=1 and jobs=4 produce bit-identical artifacts."""

    def test_sweep_bit_identical(self):
        from repro.sweep import run_sweep
        kwargs = dict(n_users=250, seed=0, include_dtu=False)
        serial = run_sweep("capacity", [9.0, 11.0, 14.0, 20.0], **kwargs)
        parallel = run_sweep("capacity", [9.0, 11.0, 14.0, 20.0],
                             jobs=4, **kwargs)
        assert serial.rows == parallel.rows
        assert str(serial) == str(parallel)

    def test_meanfield_monte_carlo_bit_identical(self):
        from repro.core.meanfield import monte_carlo_value
        from repro.population.scenarios import build_scenario
        config = build_scenario("paper-theoretical")
        serial = monte_carlo_value(config, 0.2, n_users=150, samples=4, seed=5)
        parallel = monte_carlo_value(config, 0.2, n_users=150, samples=4,
                                     seed=5, jobs=4)
        np.testing.assert_array_equal(serial.values, parallel.values)
        assert serial.samples == 4 and serial.standard_error > 0

    def test_des_replications_bit_identical(self):
        from repro.population.sampler import sample_population
        from repro.population.scenarios import build_scenario
        from repro.simulation.measurement import MeasurementConfig
        from repro.simulation.system import (
            simulate_system_replicated,
            tro_policies,
        )
        population = sample_population(build_scenario("paper-theoretical"),
                                       20, rng=3)
        policies = tro_policies(2.0, population.size)
        config = MeasurementConfig(horizon=50.0, warmup=10.0, seed=2)
        serial = simulate_system_replicated(population, policies,
                                            replications=4, config=config)
        parallel = simulate_system_replicated(population, policies,
                                              replications=4, config=config,
                                              jobs=4)
        assert serial.utilization == parallel.utilization
        assert serial.average_cost == parallel.average_cost

    def test_table3_bit_identical(self):
        from repro.experiments import table3
        serial = table3.run(n_users=150, repetitions=8, seed=0)
        parallel = table3.run(n_users=150, repetitions=8, seed=0, jobs=4)
        assert str(serial) == str(parallel)


class TestResultCache:
    """(b) warm runs return the exact cold-run object, observably."""

    def test_cache_hit_returns_exact_object(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_tasks(_seeded_draw, [{"n": 8}] * 3, seed=1, cache=cache)
        warm = run_tasks(_seeded_draw, [{"n": 8}] * 3, seed=1, cache=cache)
        assert all(not r.cache_hit for r in cold)
        assert all(r.cache_hit and r.attempts == 0 for r in warm)
        for a, b in zip(cold, warm):
            np.testing.assert_array_equal(a.unwrap(), b.unwrap())
            assert pickle.dumps(a.unwrap()) == pickle.dumps(b.unwrap())
            assert a.key == b.key

    def test_cache_events_recorded_via_obs(self, tmp_path):
        events = []

        class Capture(ObsRecorder):
            def event(self, kind, **payload):
                events.append(kind)
                super().event(kind, **payload)

        recorder = Capture(MetricsRegistry())
        with use_recorder(recorder):
            run_tasks(_square, [{"value": 2}], cache=tmp_path)
            run_tasks(_square, [{"value": 2}], cache=tmp_path)
        assert "cache.miss" in events and "cache.hit" in events
        counters = recorder.registry.snapshot()["counters"]
        assert counters["runtime.cache_hits"] == 1
        assert counters["runtime.cache_misses"] == 1
        assert counters["runtime.cache_stores"] == 1

    def test_key_depends_on_fn_config_seed_version(self, tmp_path):
        cache = ResultCache(tmp_path, version="1")
        base = cache.key_for(_square, {"value": 2}, 0)
        assert cache.key_for(_square, {"value": 2}, 0) == base
        assert cache.key_for(_seeded_draw, {"value": 2}, 0) != base
        assert cache.key_for(_square, {"value": 3}, 0) != base
        assert cache.key_for(_square, {"value": 2}, 1) != base
        assert ResultCache(tmp_path, version="2").key_for(
            _square, {"value": 2}, 0) != base

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(_square, {"value": 2}, 0)
        cache.put(key, 4)
        hit, value = cache.get(key)
        assert hit and value == 4
        cache._value_path(key).write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit

    def test_sidecar_documents_key(self, tmp_path):
        import json
        cache = ResultCache(tmp_path)
        results = run_tasks(_square, [{"value": 6}], seed=3, cache=cache)
        sidecar = cache._value_path(results[0].key).with_suffix(".meta.json")
        document = json.loads(sidecar.read_text())
        assert document["key"] == results[0].key
        assert document["document"]["fn"].endswith("_square")

    def test_sweep_warm_cache_identical_table(self, tmp_path):
        from repro.sweep import run_sweep
        kwargs = dict(n_users=200, seed=0, include_dtu=False,
                      cache=tmp_path / "sweep")
        cold = run_sweep("capacity", [10.0, 13.0], **kwargs)
        warm = run_sweep("capacity", [10.0, 13.0], **kwargs)
        assert str(cold) == str(warm)


class TestFailureHandling:
    """(c) raising / hanging tasks retry, then report; the batch survives."""

    @pytest.mark.parametrize("backend", ["inline", "thread", "process"])
    def test_raising_task_reported_not_fatal(self, backend):
        jobs = 1 if backend == "inline" else 2
        runner = TaskRunner(jobs=jobs, backend=backend, retries=1)
        results = runner.run([
            TaskSpec(_raise_always, seed=1, name="bad"),
            TaskSpec(_square, {"value": 7}, seed=2, name="good"),
        ])
        assert not results[0].ok
        assert results[0].error.kind == "exception"
        assert "deliberate failure" in results[0].error.message
        assert results[0].attempts == 2  # original + one retry
        assert results[1].unwrap() == 49

    def test_hanging_task_killed_retried_and_reported(self):
        events = []

        class Capture(ObsRecorder):
            def event(self, kind, **payload):
                events.append((kind, payload))
                super().event(kind, **payload)

        runner = TaskRunner(jobs=2, backend="process", timeout=0.3, retries=1)
        started = time.perf_counter()
        with use_recorder(Capture(MetricsRegistry())):
            results = runner.run([
                TaskSpec(_hang, {"seconds": 30.0}, seed=1, name="hung"),
                TaskSpec(_square, {"value": 4}, seed=2, name="good"),
            ])
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, "hung task must not stall the batch"
        assert results[0].error is not None
        assert results[0].error.kind == "timeout"
        assert results[1].unwrap() == 16
        kinds = [kind for kind, _ in events]
        assert "task.retried" in kinds and "task.failed" in kinds

    def test_retry_succeeds_on_second_attempt(self):
        _FLAKY_CALLS["count"] = 0
        results = TaskRunner(jobs=1, retries=1).run(
            [TaskSpec(_flaky_inline, seed=1)]
        )
        assert results[0].unwrap() == "recovered"
        assert results[0].attempts == 2

    def test_retries_zero_fails_fast(self):
        results = TaskRunner(retries=0).run([TaskSpec(_raise_always, seed=1)])
        assert results[0].error.attempts == 1


class TestObservability:
    def test_lifecycle_events_and_metrics(self):
        recorder = ObsRecorder(MetricsRegistry())
        with use_recorder(recorder):
            run_tasks(_square, [{"value": v} for v in (1, 2)], jobs=2,
                      backend="thread")
        counters = recorder.registry.snapshot()["counters"]
        assert counters["runtime.tasks_scheduled"] == 2
        assert counters["runtime.tasks_completed"] == 2
        assert counters["events.task.scheduled"] == 2
        assert counters["events.task.completed"] == 2

    def test_null_recorder_zero_overhead_path(self):
        # No ambient recorder: the run must still work (guarded hooks).
        results = run_tasks(_square, [{"value": 3}])
        assert results[0].unwrap() == 9


class TestSpecBytes:
    """measure_bytes: per-task pickle payload reported on each result."""

    def test_measured_when_enabled(self):
        specs = [TaskSpec(_square, kwargs={"value": v}, seed=1)
                 for v in (2, 3)]
        results = TaskRunner(measure_bytes=True).run(specs)
        for spec, result in zip(specs, results):
            assert result.ok
            # The measurement is the honest what-would-ship number.
            assert result.spec_bytes == len(pickle.dumps(
                spec, protocol=pickle.HIGHEST_PROTOCOL))
            assert result.spec_bytes > 0

    def test_absent_by_default(self):
        result = TaskRunner().run(
            [TaskSpec(_square, kwargs={"value": 2}, seed=1)])[0]
        assert result.spec_bytes is None

    def test_run_tasks_forwards_option(self):
        results = run_tasks(_square, [{"value": 4}], measure_bytes=True)
        assert results[0].spec_bytes is not None and results[0].spec_bytes > 0

    def test_shared_population_shrinks_payload(self, tmp_path):
        from repro.population.scenarios import build_scenario
        from repro.population.sampler import sample_population

        population = sample_population(
            build_scenario("paper-theoretical"), 2000, rng=3)
        copied = len(pickle.dumps(population,
                                  protocol=pickle.HIGHEST_PROTOCOL))
        assert population.share_memory() is population
        shared = len(pickle.dumps(population,
                                  protocol=pickle.HIGHEST_PROTOCOL))
        assert shared < copied / 10, (copied, shared)
        clone = pickle.loads(pickle.dumps(population))
        np.testing.assert_array_equal(clone.arrival_rates,
                                      population.arrival_rates)


class TestCacheStreamingPut:
    """put() streams the pickle straight to the temp file."""

    def test_roundtrip_with_numpy_payload(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(_seeded_draw, {"n": 64}, 5)
        payload = np.random.default_rng(5).standard_normal(64)
        cache.put(key, payload)
        hit, value = cache.get(key)
        assert hit
        np.testing.assert_array_equal(value, payload)

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache.key_for(_square, {"value": 3}, 0), 9)
        leftovers = [p for p in tmp_path.rglob(".tmp-*")]
        assert leftovers == []

    def test_failed_put_cleans_up(self, tmp_path):
        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("no pickle for you")

        cache = ResultCache(tmp_path)
        key = cache.key_for(_square, {"value": 3}, 0)
        with pytest.raises(RuntimeError, match="no pickle"):
            cache.put(key, Unpicklable())
        leftovers = [p for p in tmp_path.rglob(".tmp-*")]
        assert leftovers == []
        hit, _ = cache.get(key)
        assert not hit


class TestSharedMemoryEquivalence:
    """Zero-copy sharing is a transport change, never a numbers change."""

    def test_replications_identical_with_shared_population(self):
        from repro.population.scenarios import build_scenario
        from repro.population.sampler import sample_population
        from repro.simulation.measurement import MeasurementConfig
        from repro.simulation.system import (
            simulate_system_replicated,
            tro_policies,
        )

        config = MeasurementConfig(horizon=40.0, warmup=8.0, seed=3)

        def measure(share):
            population = sample_population(
                build_scenario("paper-theoretical"), 12, rng=7)
            policies = tro_policies(2.0, population.size)
            return simulate_system_replicated(
                population, policies, replications=3, config=config,
                jobs=2, share_population=share)

        plain = measure(False)
        shared = measure(True)
        assert shared.utilization.mean == plain.utilization.mean
        assert shared.utilization.half_width == plain.utilization.half_width
        assert shared.average_cost.mean == plain.average_cost.mean

    def test_shared_kernel_sweep_rows_identical(self):
        from repro.sweep import run_sweep

        values = [9.0, 10.0, 12.0]
        plain = run_sweep("capacity", values, n_users=200, seed=0,
                          include_dtu=True, jobs=1)
        shared = run_sweep("capacity", values, n_users=200, seed=0,
                           include_dtu=True, jobs=2, shared_kernel=True)
        assert shared.rows == plain.rows

    def test_shared_kernel_sweep_validation(self):
        from repro.sweep import run_sweep

        with pytest.raises(ValueError, match="capacity"):
            run_sweep("a-max", [1.0], n_users=50, shared_kernel=True)
        with pytest.raises(ValueError, match="simulation"):
            run_sweep("capacity", [10.0], n_users=50, backend="event",
                      shared_kernel=True)
