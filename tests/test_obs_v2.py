"""Tests for the v2 observability layers: spans, serve, watch, profile,
bench, and the Welford histogram fix.

The net-runtime integration contracts (bit-identical span logs, balanced
spans under faults, run_dtu equivalence with spans on) live in
``tests/test_net_spans.py``; this module covers the building blocks.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.bench import compare, metric_direction, normalize
from repro.obs.bench import main as bench_main
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import Profiler
from repro.obs.report import main as report_main
from repro.obs.serve import MetricsServer, prometheus_text, sanitize_metric_name
from repro.obs.spans import (
    Span,
    SpanCollector,
    critical_path,
    main as spans_main,
    read_spans,
    render,
)
from repro.obs.watch import TraceWatcher
from repro.obs.watch import main as watch_main


# ---------------------------------------------------------------------------
# Satellite 1: numerically stable histogram stddev (Welford)
# ---------------------------------------------------------------------------


class TestHistogramWelford:
    def test_stddev_stable_for_large_offset_samples(self):
        # Unix-epoch-scale samples differing in the 7th decimal: the naive
        # Σx² − (Σx)²/n form loses every significant digit here.
        offset = 1.0e9
        deltas = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
        histogram = Histogram("ts")
        for delta in deltas:
            histogram.observe(offset + delta)
        expected = float(np.std(np.asarray(deltas), ddof=1))
        assert histogram.stddev == pytest.approx(expected, rel=1e-12)
        assert histogram.mean == pytest.approx(offset + np.mean(deltas))

    def test_stddev_matches_numpy_on_ordinary_samples(self):
        values = [0.3, 1.7, 2.2, 0.9, 5.5, 3.1]
        histogram = Histogram("h")
        for value in values:
            histogram.observe(value)
        assert histogram.stddev == pytest.approx(
            float(np.std(np.asarray(values), ddof=1)), rel=1e-13)
        assert histogram.total == pytest.approx(sum(values))

    def test_degenerate_counts(self):
        histogram = Histogram("h")
        assert math.isnan(histogram.stddev)
        histogram.observe(4.0)
        assert math.isnan(histogram.stddev)   # undefined at n=1 (ddof=1)
        histogram.observe(4.0)
        assert histogram.stddev == 0.0


# ---------------------------------------------------------------------------
# Spans: collector mechanics and renderers
# ---------------------------------------------------------------------------


class TestSpanCollector:
    def test_ids_are_deterministic_counters(self):
        collector = SpanCollector()
        first = collector.start("a", virtual_time=0.0)
        second = collector.start("b", parent=first, virtual_time=1.0)
        assert (first, second) == (0, 1)

    def test_trace_inherited_from_parent(self):
        collector = SpanCollector()
        root = collector.start("root", trace=7, virtual_time=0.0)
        child = collector.start("child", parent=root, virtual_time=1.0)
        spans = {span.id: span for span in collector.spans}
        assert spans[child].trace == 7

    def test_end_requires_open_span(self):
        collector = SpanCollector()
        span = collector.start("a")
        collector.end(span)
        with pytest.raises(ValueError):
            collector.end(span)

    def test_end_none_is_noop(self):
        SpanCollector().end(None)

    def test_finish_closes_all_open_in_id_order(self):
        collector = SpanCollector()
        collector.start("a", virtual_time=0.0)
        done = collector.start("b", virtual_time=0.0)
        collector.end(done, virtual_time=1.0)
        collector.start("c", virtual_time=2.0)
        assert collector.finish(virtual_time=5.0) == 2
        assert collector.open_count == 0
        cancelled = [s for s in collector.spans if s.status == "cancelled"]
        assert [s.name for s in cancelled] == ["a", "c"]
        assert all(s.t_end == 5.0 for s in cancelled)

    def test_canonical_excludes_wall_clock(self):
        left, right = SpanCollector(), SpanCollector()
        for collector in (left, right):
            span = collector.start("x", virtual_time=0.5, tag="v")
            collector.end(span, virtual_time=1.5)
        assert left.canonical() == right.canonical()

    def test_jsonl_roundtrip_and_torn_tail(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        collector = SpanCollector(path)
        span = collector.start("a", virtual_time=0.0, k=1)
        collector.end(span, virtual_time=2.0)
        collector.close()
        with path.open("a") as handle:
            handle.write('{"id": 99, "name": "torn')   # no newline
        spans = read_spans(path)
        assert len(spans) == 1
        assert spans[0].name == "a" and spans[0].tags == {"k": 1}


class TestSpanAnalysis:
    def _tree(self):
        return [
            Span(id=0, name="root", trace=1, parent=None,
                 t_start=0.0, t_end=1.0, status="measured"),
            Span(id=1, name="fast", trace=1, parent=0,
                 t_start=0.0, t_end=0.2, status="delivered"),
            Span(id=2, name="slow", trace=1, parent=0,
                 t_start=0.0, t_end=0.8, status="delivered"),
            Span(id=3, name="leaf", trace=1, parent=2,
                 t_start=0.8, t_end=0.9, status="ok"),
        ]

    def test_critical_path_follows_latest_finisher(self):
        assert [s.name for s in critical_path(self._tree())] == \
            ["root", "slow", "leaf"]

    def test_render_contains_census_and_paths(self):
        text = render(self._tree())
        assert "Span census" in text
        assert "root -> slow -> leaf" in text

    def test_spans_cli_graceful_on_missing_dir(self, tmp_path, capsys):
        assert spans_main([str(tmp_path / "nope")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_spans_cli_renders_trace_dir(self, tmp_path, capsys):
        collector = SpanCollector(tmp_path / "spans.jsonl")
        span = collector.start("coordinator.broadcast", trace=1,
                               virtual_time=0.0)
        collector.end(span, status="measured", virtual_time=1.0)
        collector.close()
        assert spans_main([str(tmp_path)]) == 0
        assert "coordinator.broadcast" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Prometheus export
# ---------------------------------------------------------------------------


class TestPrometheusText:
    def test_sanitizes_names(self):
        assert sanitize_metric_name("dtu.gamma-hat") == "repro_dtu_gamma_hat"
        assert sanitize_metric_name("0weird", prefix="") == "_0weird"

    def test_renders_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("net.messages_sent", 3)
        registry.set_gauge("dtu.gamma_hat", 0.5)
        registry.observe("kernel.value_seconds", 0.25)
        text = prometheus_text(registry.snapshot())
        assert "# TYPE repro_net_messages_sent_total counter" in text
        assert "repro_net_messages_sent_total 3.0" in text
        assert "repro_dtu_gamma_hat 0.5" in text
        assert "repro_kernel_value_seconds_count 1" in text
        assert "repro_kernel_value_seconds_sum 0.25" in text

    def test_nan_and_inf_render_as_prometheus_literals(self):
        text = prometheus_text({"gauges": {"g": {"value": float("nan"),
                                                 "updates": 1}}})
        assert "repro_g NaN" in text


class TestMetricsServer:
    def test_serves_live_snapshot_over_http(self):
        registry = MetricsRegistry()
        registry.inc("requests", 1)
        with MetricsServer(registry.snapshot, port=0) as server:
            body = urllib.request.urlopen(server.url, timeout=5).read()
            assert b"repro_requests_total 1.0" in body
            registry.inc("requests", 1)     # live: next scrape sees it
            body = urllib.request.urlopen(server.url, timeout=5).read()
            assert b"repro_requests_total 2.0" in body

    def test_unknown_path_is_404(self):
        registry = MetricsRegistry()
        with MetricsServer(registry.snapshot, port=0) as server:
            url = server.url.replace("/metrics", "/other")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(url, timeout=5)
            excinfo.value.close()     # the error holds the client socket
            assert excinfo.value.code == 404


# ---------------------------------------------------------------------------
# Watch: the tail-follower
# ---------------------------------------------------------------------------


def _write_events(path, records):
    with path.open("a") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestWatch:
    def test_ingests_convergence_events_incrementally(self, tmp_path):
        events = tmp_path / "events.jsonl"
        _write_events(events, [
            {"kind": "dtu.iteration", "mono": 0.0,
             "data": {"t": 0, "gamma_hat": 0.1, "gamma": 0.4,
                      "eta": 0.1, "L": 0}},
        ])
        watcher = TraceWatcher(tmp_path)
        assert watcher.poll() == 1
        _write_events(events, [
            {"kind": "dtu.iteration", "mono": 0.5,
             "data": {"t": 1, "gamma_hat": 0.2, "gamma": 0.38,
                      "eta": 0.1, "L": 0}},
            {"kind": "dtu.done", "mono": 0.6, "data": {"converged": True}},
        ])
        assert watcher.poll() == 2
        assert watcher.gamma_hat == [0.1, 0.2]
        assert watcher.done_payload == {"converged": True}
        text = watcher.render()
        assert "γ̂ (latest)" in text and "0.2" in text

    def test_torn_final_line_deferred_until_complete(self, tmp_path):
        events = tmp_path / "events.jsonl"
        full = json.dumps({"kind": "net.round", "mono": 1.0,
                           "data": {"gamma_hat": 0.3, "measured": 0.31}})
        events.write_text(full + "\n" + full[:20])
        watcher = TraceWatcher(tmp_path)
        assert watcher.poll() == 1          # torn tail withheld
        with events.open("a") as handle:
            handle.write(full[20:] + "\n")
        assert watcher.poll() == 1          # completed line now counted
        assert watcher.gamma_hat == [0.3, 0.3]

    def test_sharded_trace_finishes_with_one_series_per_site(self,
                                                             tmp_path):
        """Following a finished ``repro sharded``-style trace returns on
        its ``sharded.done``, and each site's γ̂ is one series: the base
        ``net.round`` events every site also emits carry no site, so
        they do not land in a series of their own."""
        import io
        import threading

        from repro.core.multiedge import MultiEdgeSystem, tiered_sites
        from repro.net import ShardedNetConfig, run_sharded_dtu
        from repro.obs import ObsRecorder, Tracer, read_events
        from repro.obs.watch import watch
        from repro.population.sampler import sample_population
        from repro.population.scenarios import build_scenario

        population = sample_population(
            build_scenario("paper-theoretical"), 300, rng=0)
        system = MultiEdgeSystem(population, tiered_sites(3), rng=0)
        with Tracer(tmp_path / "events.jsonl") as tracer:
            result = run_sharded_dtu(system, ShardedNetConfig(),
                                     recorder=ObsRecorder(tracer=tracer))
        per_site = {}
        for event in read_events(tmp_path / "events.jsonl"):
            if event["kind"] == "sharded.round":
                per_site.setdefault(event["data"]["site"], []).append(
                    event["data"]["gamma_hat"])
        assert sorted(per_site) == [0, 1, 2]
        assert [len(per_site[site]) for site in range(3)] == \
            [len(trace.estimated) for trace in result.traces]

        watched = []
        follower = threading.Thread(target=lambda: watched.append(watch(
            tmp_path, follow=True, interval=0.01, stream=io.StringIO())),
            daemon=True)
        follower.start()
        follower.join(timeout=30)
        assert not follower.is_alive() and len(watched) == 1
        watcher = watched[0]
        assert watcher.done_payload["converged"] == result.converged
        assert watcher.site_gamma_hat == per_site
        assert watcher.gamma_hat == [] and watcher.times == []
        text = watcher.render()
        assert "site 2 γ̂" in text and "convergence per site" in text

    def test_follow_returns_on_a_finished_trace_without_done(self,
                                                              tmp_path):
        """A ``repro.experiments fig2`` trace has no ``*.done`` event;
        following it returns once ``metrics.json`` exists, with every
        event read."""
        import io
        import threading

        from repro.experiments.__main__ import main as experiments_main
        from repro.obs import read_events
        from repro.obs.watch import watch

        assert experiments_main(
            ["fig2", "--trace", str(tmp_path), "--quiet"]) == 0
        watched = []
        follower = threading.Thread(target=lambda: watched.append(watch(
            tmp_path, follow=True, interval=0.01, stream=io.StringIO())),
            daemon=True)
        follower.start()
        follower.join(timeout=30)
        assert not follower.is_alive() and len(watched) == 1
        assert watched[0].done_payload is None
        assert watched[0].events_seen == \
            len(list(read_events(tmp_path / "events.jsonl")))

    def test_cli_graceful_on_missing_dir(self, tmp_path, capsys):
        assert watch_main([str(tmp_path / "nope")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_cli_renders_existing_dir(self, tmp_path, capsys):
        _write_events(tmp_path / "events.jsonl", [
            {"kind": "net.round", "mono": 0.0,
             "data": {"gamma_hat": 0.2, "measured": 0.25}},
        ])
        assert watch_main([str(tmp_path)]) == 0
        assert "γ̂ (latest)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------


def _busy():
    return sum(math.sqrt(i) for i in range(20_000))


class TestProfiler:
    def test_hotspots_and_collapsed_output(self):
        profiler = Profiler()
        with profiler:
            _busy()
        hotspots = profiler.hotspots(limit=5)
        assert hotspots and all("cumtime" in row for row in hotspots)
        assert any("_busy" in row["function"] for row in hotspots)
        collapsed = profiler.collapsed()
        for line in collapsed.strip().splitlines():
            frames, count = line.rsplit(" ", 1)
            assert frames and int(count) > 0

    def test_save_writes_three_artifacts(self, tmp_path):
        profiler = Profiler()
        with profiler:
            _busy()
        paths = profiler.save(tmp_path)
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0
        data = json.loads(paths["hotspots"].read_text())
        assert data["hotspots"]

    def test_results_unaffected_by_profiling(self):
        plain = _busy()
        profiler = Profiler()
        with profiler:
            profiled = _busy()
        assert plain == profiled

    def test_hotspots_feed_the_report_summary(self, tmp_path, capsys):
        profiler = Profiler()
        with profiler:
            _busy()
        profiler.save(tmp_path)
        assert report_main([str(tmp_path)]) == 0
        assert "Profile hotspots" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Satellite 2: graceful CLI failures (report; spans/watch covered above)
# ---------------------------------------------------------------------------


class TestReportGraceful:
    def test_missing_dir_one_line_error_nonzero_exit(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "missing")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# Bench harness: normalization shim + direction-aware comparison
# ---------------------------------------------------------------------------


LEGACY = {
    "benchmark": "demo",
    "repro_version": "1.0", "python": "3.11", "platform": "linux",
    "cpu_count": 1, "quick": True,
    "workloads": [
        {"workload": "sweep", "n_devices": 10, "serial_seconds": 2.0,
         "parallel_speedup": 2.5, "messages_per_second": 100.0,
         "identical_output": True, "rounds": 7},
    ],
}


class TestBenchNormalize:
    def test_directions(self):
        assert metric_direction("wall_seconds") == "lower"
        assert metric_direction("parallel_speedup") == "higher"
        assert metric_direction("messages_per_second") == "higher"
        assert metric_direction("rounds") is None       # config, not perf
        assert metric_direction("identical_output") is None

    def test_legacy_shim_and_idempotence(self):
        document = normalize(LEGACY)
        assert document["schema"] == "repro.bench/v1"
        ids = {m["id"] for m in document["metrics"]}
        assert "demo/workload=sweep,n_devices=10/serial_seconds" in ids
        assert len(document["metrics"]) == 3    # bools/config excluded
        assert normalize(document) is document  # already normalized

    def test_all_committed_bench_files_normalize(self):
        from pathlib import Path
        repo = Path(__file__).resolve().parents[1]
        for name in ("BENCH_runtime.json", "BENCH_net.json",
                     "BENCH_kernels.json", "BENCH_fastpath.json"):
            path = repo / name
            if not path.exists():
                pytest.skip(f"{name} not committed")
            document = normalize(path)
            assert document["metrics"], f"{name} produced no metrics"
            assert document["environment"]["cpu_count"] is not None


def _mutated(factor_time: float = 1.0, factor_rate: float = 1.0) -> dict:
    data = json.loads(json.dumps(LEGACY))
    row = data["workloads"][0]
    row["serial_seconds"] *= factor_time
    row["parallel_speedup"] *= factor_rate
    row["messages_per_second"] *= factor_rate
    return data


class TestBenchCompare:
    def test_identical_runs_pass(self):
        result = compare(LEGACY, LEGACY, tolerance=0.1)
        assert not result["regressions"]
        assert len(result["unchanged"]) == 3

    def test_slower_timing_regresses(self):
        result = compare(LEGACY, _mutated(factor_time=2.0), tolerance=0.5)
        assert [r["id"] for r in result["regressions"]] == \
            ["demo/workload=sweep,n_devices=10/serial_seconds"]

    def test_lower_rate_regresses(self):
        result = compare(LEGACY, _mutated(factor_rate=0.25), tolerance=0.5)
        regressed = {r["id"] for r in result["regressions"]}
        assert "demo/workload=sweep,n_devices=10/parallel_speedup" in regressed

    def test_faster_timing_is_improvement_not_regression(self):
        result = compare(LEGACY, _mutated(factor_time=0.25), tolerance=0.5)
        assert not result["regressions"]
        assert result["improvements"]

    def test_missing_metric_is_skipped_not_failed(self):
        data = json.loads(json.dumps(LEGACY))
        data["workloads"][0]["workload"] = "other-case"
        result = compare(LEGACY, data, tolerance=0.5)
        assert not result["regressions"]
        assert len(result["skipped"]) == 6      # 3 old-only + 3 new-only

    def test_cli_exit_codes(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(LEGACY))
        new.write_text(json.dumps(_mutated(factor_time=2.0)))
        assert bench_main(["compare", str(old), str(old),
                           "--tolerance", "0.5"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert bench_main(["compare", str(old), str(new),
                           "--tolerance", "0.5"]) == 1
        assert "REGRESSED" in capsys.readouterr().out
        assert bench_main(["compare", str(old),
                           str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_cli_normalize_writes_schema(self, tmp_path, capsys):
        source = tmp_path / "bench.json"
        source.write_text(json.dumps(LEGACY))
        out = tmp_path / "norm.json"
        assert bench_main(["normalize", str(source), "-o", str(out)]) == 0
        assert json.loads(out.read_text())["schema"] == "repro.bench/v1"
