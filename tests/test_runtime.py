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
from collections import Counter

import numpy as np
import pytest

from repro.obs import (
    MetricsRegistry,
    ObsRecorder,
    Tracer,
    read_events,
    use_recorder,
)
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


# --- module-level task functions (the cache needs importable names;
# --- lambdas are rejected by design).

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


class _Unpicklable:
    """A task input that refuses to be pickled."""

    def __init__(self, value):
        self.value = value

    def __reduce__(self):
        raise TypeError("this input must reach its worker unpickled")


def _doubled(box, seed):
    return 2 * box.value


def _flaky_inline(seed):
    # Only meaningful inline (jobs=1 shares the interpreter state).
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

    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "process"])
    def test_pool_backends_match_inline(self, jobs):
        inline = run_tasks(_seeded_draw, [{"n": 5}] * 4, seed=9)
        pooled = run_tasks(_seeded_draw, [{"n": 5}] * 4, seed=9, jobs=jobs)
        for a, b in zip(inline, pooled):
            np.testing.assert_array_equal(a.unwrap(), b.unwrap())

    def test_workers_inherit_unpicklable_inputs(self):
        """Workers are forked: a task's inputs reach it without a pickle."""
        box = _Unpicklable(21)
        with pytest.raises(TypeError):
            pickle.dumps(box)
        results = TaskRunner(jobs=2, retries=0).run(
            [TaskSpec(_doubled, {"box": box}, seed=1) for _ in range(2)])
        assert [result.unwrap() for result in results] == [42, 42]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TaskRunner(jobs=0)
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

    @pytest.mark.parametrize("jobs", [1, 2], ids=["inline", "process"])
    def test_raising_task_reported_not_fatal(self, jobs):
        runner = TaskRunner(jobs=jobs, retries=1)
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

        runner = TaskRunner(jobs=2, timeout=0.3, retries=1)
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
            run_tasks(_square, [{"value": v} for v in (1, 2)], jobs=2)
        counters = recorder.registry.snapshot()["counters"]
        assert counters["runtime.tasks_scheduled"] == 2
        assert counters["runtime.tasks_completed"] == 2
        assert counters["events.task.scheduled"] == 2
        assert counters["events.task.completed"] == 2

    def test_null_recorder_zero_overhead_path(self):
        # No ambient recorder: the run must still work (guarded hooks).
        results = run_tasks(_square, [{"value": 3}])
        assert results[0].unwrap() == 9

    def test_forked_workers_leave_the_parent_trace_alone(self, tmp_path):
        """At ``jobs=2`` the trace holds the runner's own events, once
        each, in order: a forked worker runs its task under the null
        recorder instead of writing to the inherited trace file."""
        from repro.sweep import run_sweep

        path = tmp_path / "events.jsonl"
        with Tracer(path) as tracer, \
                use_recorder(ObsRecorder(MetricsRegistry(), tracer)):
            run_sweep("capacity", [9, 10, 12, 14], n_users=300, jobs=2)
        records = list(read_events(path))
        assert [record["seq"] for record in records] == \
            list(range(len(records)))
        assert Counter(record["kind"] for record in records) == \
            {"task.scheduled": 4, "task.completed": 4}


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


class TestCacheKeyPins:
    """Digests and cache keys pinned across commits.

    A change to how a population, a DES replication task or a sweep
    point canonicalizes would orphan every cached result.
    """

    @staticmethod
    def _stored_keys(directory):
        return sorted(path.name
                      for path in (directory / "objects").glob("*/*")
                      if not path.name.endswith(".meta.json"))

    @staticmethod
    def _population():
        from repro.population.sampler import sample_population
        from repro.population.scenarios import build_scenario

        return sample_population(build_scenario("paper-theoretical"), 12,
                                 rng=7)

    def test_population_digest(self):
        assert content_digest(self._population()) == (
            "e39b16fd4cadfc7d9bae5955c55a440e307586ab5d810ae376a2d4cd6e1a6a00")

    def test_replication_task_keys(self, tmp_path):
        from repro.simulation.measurement import MeasurementConfig
        from repro.simulation.system import (
            simulate_system_replicated,
            tro_policies,
        )

        population = self._population()
        simulate_system_replicated(
            population, tro_policies(2.0, population.size), replications=2,
            config=MeasurementConfig(horizon=40.0, warmup=8.0, seed=3),
            cache=ResultCache(tmp_path, version="1.0.0"))
        assert self._stored_keys(tmp_path) == [
            "5bb117ed1579dcf95ba11fc2472c938704f763499725afb84c28692690f0234c",
            "ffa5ba07b5b0fbc9444451e0abc025d6f0f40a3a78377d20ebf9ec3a3457b5fd",
        ]

    def test_sweep_point_key(self, tmp_path):
        from repro.sweep import run_sweep

        run_sweep("capacity", [10.0], n_users=100, include_dtu=False,
                  cache=ResultCache(tmp_path, version="1.0.0"))
        assert self._stored_keys(tmp_path) == [
            "0844801d4e9cb533de7ef69c27e0b6c6c452bd0ff38d3ad620083dfe150eff97",
        ]
