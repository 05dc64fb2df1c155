"""Tests for repro.obs — metrics, tracing, manifests, recorders, report."""

import json
import math

import numpy as np
import pytest

from repro.obs import (
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    ObsRecorder,
    RunManifest,
    StructuredLogger,
    Tracer,
    get_recorder,
    read_events,
    summarize,
    use_recorder,
)
from repro.obs.report import main as report_main


class TestMetricsRegistry:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 4)
        assert registry.counter("hits").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().inc("hits", -1)

    def test_gauge_tracks_last_value_and_updates(self):
        registry = MetricsRegistry()
        registry.set_gauge("gamma", 0.3)
        registry.set_gauge("gamma", 0.7)
        gauge = registry.gauge("gamma")
        assert gauge.value == 0.7
        assert gauge.updates == 2

    def test_histogram_statistics(self):
        registry = MetricsRegistry()
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.observe("lat", value)
        hist = registry.histogram("lat")
        assert hist.count == 4
        assert hist.mean == pytest.approx(2.5)
        assert hist.min == 1.0 and hist.max == 4.0
        assert hist.stddev == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_timer_observes_elapsed_seconds(self):
        registry = MetricsRegistry()
        with registry.timer("stage"):
            pass
        hist = registry.histogram("stage")
        assert hist.count == 1
        assert hist.min >= 0.0

    def test_instruments_are_cached_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_snapshot_roundtrips_through_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("n", 2)
        registry.set_gauge("g", 1.5)
        registry.observe("h", 3.0)
        path = registry.save(tmp_path / "metrics.json")
        data = json.loads(path.read_text())
        assert data["counters"]["n"] == 2
        assert data["gauges"]["g"]["value"] == 1.5
        assert data["histograms"]["h"]["count"] == 1

    def test_render_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.inc("solver.calls")
        registry.set_gauge("solver.gamma", 0.4)
        registry.observe("solver.seconds", 0.1)
        text = registry.render()
        assert "solver.calls" in text
        assert "solver.gamma" in text
        assert "solver.seconds" in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""


class TestTracer:
    def test_emits_jsonl_with_run_id_and_timestamps(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Tracer(path, run_id="abc") as tracer:
            tracer.emit("start", {"x": 1})
            tracer.emit("stop")
        events = list(read_events(path))
        assert [e["kind"] for e in events] == ["start", "stop"]
        assert all(e["run"] == "abc" for e in events)
        assert [e["seq"] for e in events] == [0, 1]
        assert events[0]["mono"] <= events[1]["mono"]
        assert events[0]["data"] == {"x": 1}

    def test_numpy_payloads_serialise(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Tracer(path) as tracer:
            tracer.emit("np", {"scalar": np.float64(0.5),
                               "vector": np.arange(3)})
        (event,) = read_events(path)
        assert event["data"] == {"scalar": 0.5, "vector": [0, 1, 2]}

    def test_emit_after_close_raises(self, tmp_path):
        tracer = Tracer(tmp_path / "t.jsonl")
        tracer.close()
        with pytest.raises(ValueError):
            tracer.emit("late")

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with Tracer(path) as tracer:
            tracer.emit("ok")
        with path.open("a") as handle:
            handle.write('{"kind": "torn')
        assert [e["kind"] for e in read_events(path)] == ["ok"]


class TestRunManifest:
    def test_capture_and_roundtrip(self, tmp_path):
        manifest = RunManifest.capture(seed=7, config={"full": False})
        assert manifest.seed == 7
        assert manifest.python
        assert manifest.numpy
        path = manifest.save(tmp_path / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded == manifest

    def test_git_sha_present_in_checkout(self):
        # The test suite runs inside the repository checkout.
        manifest = RunManifest.capture()
        assert manifest.git_sha is None or len(manifest.git_sha) >= 40


class TestRecorders:
    def test_null_recorder_is_disabled_and_inert(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        recorder.event("kind", x=1)
        recorder.count("c")
        recorder.gauge("g", 1.0)
        recorder.observe("h", 1.0)
        with recorder.timer("t"):
            pass

    def test_null_timer_is_shared(self):
        assert NULL_RECORDER.timer("a") is NULL_RECORDER.timer("b")

    def test_obs_recorder_fans_out(self, tmp_path):
        tracer = Tracer(tmp_path / "events.jsonl")
        recorder = ObsRecorder(MetricsRegistry(), tracer)
        recorder.event("solver.step", gamma=0.5)
        recorder.count("solver.steps")
        tracer.close()
        assert recorder.registry.counter("events.solver.step").value == 1
        assert recorder.registry.counter("solver.steps").value == 1
        (event,) = read_events(tmp_path / "events.jsonl")
        assert event["kind"] == "solver.step"

    def test_obs_recorder_without_tracer(self):
        recorder = ObsRecorder()
        recorder.event("only.metrics")
        assert recorder.registry.counter("events.only.metrics").value == 1


class TestAmbientContext:
    def test_default_is_null(self):
        assert get_recorder() is NULL_RECORDER

    def test_use_recorder_installs_and_restores(self):
        recorder = ObsRecorder()
        with use_recorder(recorder):
            assert get_recorder() is recorder
        assert get_recorder() is NULL_RECORDER

    def test_restores_on_exception(self):
        recorder = ObsRecorder()
        with pytest.raises(RuntimeError):
            with use_recorder(recorder):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER


class TestStructuredLogger:
    def test_mirrors_to_stream_and_recorder(self, capsys):
        recorder = ObsRecorder()
        log = StructuredLogger(recorder=recorder)
        log.info("hello")
        log.section("[fig2] (0.1s)")
        assert "hello" in capsys.readouterr().out
        assert recorder.registry.counter("events.log").value == 2

    def test_quiet_suppresses_stdout_but_not_trace(self, capsys):
        recorder = ObsRecorder()
        log = StructuredLogger(quiet=True, recorder=recorder)
        log.info("silent")
        log.raw("table\nbody")
        assert capsys.readouterr().out == ""
        assert recorder.registry.counter("events.log").value == 2

    def test_warning_reaches_stderr_under_quiet(self, capsys):
        log = StructuredLogger(quiet=True)
        log.warning("careful")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "careful" in captured.err


class TestInstrumentedLayers:
    def test_system_simulation_emits_measurement_event(self, small_population):
        from repro.simulation.measurement import MeasurementConfig
        from repro.simulation.system import simulate_system, tro_policies

        recorder = ObsRecorder()
        config = MeasurementConfig(horizon=30.0, warmup=5.0, seed=3)
        simulate_system(
            small_population,
            tro_policies(1.0, small_population.size),
            config=config,
            recorder=recorder,
        )
        registry = recorder.registry
        assert registry.counter("system.simulations").value == 1
        assert registry.counter("events.system.measurement").value == 1
        n = small_population.size
        assert registry.histogram("system.offload_fraction").count == n
        assert registry.histogram("system.queue_length").count == n
        assert not math.isnan(registry.gauge("system.utilization").value)

    def test_mfne_bisection_trace_matches_iterations(self, mean_field):
        from repro.core.equilibrium import solve_mfne

        recorder = ObsRecorder()
        result = solve_mfne(mean_field, recorder=recorder)
        registry = recorder.registry
        assert registry.counter("mfne.bisection_steps").value == result.iterations
        assert registry.counter("events.mfne.done").value == 1
        assert registry.gauge("mfne.gamma_star").value == result.utilization

    def test_mfne_damped_trace(self, mean_field):
        from repro.core.equilibrium import solve_mfne

        recorder = ObsRecorder()
        result = solve_mfne(mean_field, method="damped",
                            max_iterations=50, tolerance=1e-6,
                            recorder=recorder)
        assert (recorder.registry.counter("mfne.damped_steps").value
                == result.iterations)

    def test_meanfield_value_counts_with_ambient_recorder(self, mean_field):
        recorder = ObsRecorder()
        with use_recorder(recorder):
            mean_field.value(0.3)
            mean_field.value(0.5)
        registry = recorder.registry
        assert registry.counter("meanfield.value_evaluations").value == 2
        assert registry.histogram("meanfield.value_seconds").count == 2

    def test_meanfield_value_identical_with_and_without(self, mean_field):
        plain = mean_field.value(0.4)
        with use_recorder(ObsRecorder()):
            traced = mean_field.value(0.4)
        assert traced == plain


class TestReport:
    def _write_trace(self, directory):
        manifest = RunManifest.capture(seed=1, config={"full": False})
        manifest.save(directory / "manifest.json")
        registry = MetricsRegistry()
        with Tracer(directory / "events.jsonl", run_id=manifest.run_id) as tracer:
            recorder = ObsRecorder(registry, tracer)
            recorder.event("dtu.iteration", t=1, gamma_hat=0.2)
            recorder.event("dtu.iteration", t=2, gamma_hat=0.3)
            recorder.count("dtu.iterations", 2)
            recorder.observe("dtu.oracle_measure_seconds", 0.01)
        registry.save(directory / "metrics.json")

    def test_summarize_renders_all_sections(self, tmp_path):
        self._write_trace(tmp_path)
        text = summarize(tmp_path)
        assert "Run manifest" in text
        assert "Event census" in text
        assert "dtu.iteration" in text
        assert "Counters" in text
        assert "dtu.oracle_measure_seconds" in text

    def test_summarize_partial_trace(self, tmp_path):
        with Tracer(tmp_path / "events.jsonl") as tracer:
            tracer.emit("lonely")
        text = summarize(tmp_path)
        assert "lonely" in text
        assert "Run manifest" not in text

    def test_summarize_empty_directory(self, tmp_path):
        assert "nothing to summarise" in summarize(tmp_path)

    def test_summarize_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            summarize(tmp_path / "nope")

    def test_cli_main_prints_summary(self, tmp_path, capsys):
        self._write_trace(tmp_path)
        assert report_main([str(tmp_path)]) == 0
        assert "Event census" in capsys.readouterr().out


class TestExperimentsCli:
    def test_trace_flag_writes_trace_directory(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "trace"
        assert main(["fig2", "--trace", str(out), "--quiet"]) == 0
        assert (out / "manifest.json").exists()
        assert (out / "events.jsonl").exists()
        assert (out / "metrics.json").exists()
        kinds = [e["kind"] for e in read_events(out / "events.jsonl")]
        assert "artifact.completed" in kinds

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig2", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_stdout_format_unchanged_without_flags(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "=" * 72 in out
        assert "[fig2]" in out
        assert "Fig. 2" in out

    def test_metrics_flag_prints_table(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig2", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "Counters" in out
        assert "events.artifact.completed" in out

    def test_positional_and_only_conflict(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig2", "--only", "fig3"])
