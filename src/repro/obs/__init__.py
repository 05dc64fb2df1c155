"""repro.obs — observability: metrics, tracing, manifests, reporting.

The subsystem has four layers:

* **metrics** — :class:`MetricsRegistry` with counters, gauges, histograms
  and ``timer()`` context managers;
* **tracing** — :class:`Tracer` appends structured JSONL events (run id,
  wall-clock + monotonic timestamps) and :class:`RunManifest` captures the
  reproducibility envelope (seed, config, git SHA, environment);
* **recording** — the :class:`Recorder` facade instrumented code calls.
  The default is the zero-overhead :data:`NULL_RECORDER`; an
  :class:`ObsRecorder` fans out to a registry, a tracer and a
  thread-safe span collector. The ambient recorder
  (:func:`get_recorder` / :func:`use_recorder`) lets a CLI flag switch
  the whole process on without threading arguments everywhere, and
  :func:`observed_run` is the one run scaffold every CLI entry point
  (``repro net``/``sharded``/``serve``, ``repro.experiments``) opens and
  closes its trace directory, spans and live exporter through — its
  manifest records every parsed argument;
* **reporting** — :func:`repro.obs.report.summarize` (also
  ``python -m repro.obs.report DIR``) renders a trace directory back into
  ASCII tables.

Version 2 adds four live-telemetry layers on the same facade:

* **spans** — :class:`~repro.obs.spans.SpanCollector` records causal
  span trees (``coordinator.broadcast → msg.* → device.best_response →
  report.receive``) with deterministic ids and virtual-time bounds;
  ``python -m repro.obs.spans DIR`` renders per-round critical paths;
* **export** — :class:`~repro.obs.serve.MetricsServer` serves the live
  registry in Prometheus text format (``--serve-metrics PORT``), and
  ``python -m repro.obs.watch DIR`` tail-follows a trace directory;
* **profiling** — :class:`~repro.obs.profile.Profiler` wraps cProfile
  and emits hotspot tables plus flamegraph-ready collapsed stacks;
* **benchmarks** — :mod:`repro.obs.bench` normalizes every
  ``BENCH_*.json`` shape into one schema and compares runs for
  regressions (``python -m repro.obs.bench compare OLD NEW``).

Instrumentation is opt-in everywhere: with the null recorder installed,
solver and simulator outputs are bit-identical to uninstrumented code.
"""

from repro.obs.context import get_recorder, resolve_recorder, use_recorder
from repro.obs.log import StructuredLogger
from repro.obs.manifest import RunManifest, git_revision
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_snapshot,
)
from repro.obs.profile import Profiler, render_hotspots
from repro.obs.recorder import NULL_RECORDER, NullRecorder, ObsRecorder, Recorder
from repro.obs.run import observed_run
from repro.obs.serve import MetricsServer, prometheus_text
from repro.obs.tracer import Tracer, new_run_id, read_events

#: Lazily resolved (PEP 562) so that importing the package — which every
#: ``python -m repro.obs.<tool>`` invocation does first — leaves the CLI
#: submodules out of ``sys.modules`` and runpy warning-free.
_LAZY = {"Span": "spans", "SpanCollector": "spans",
         "critical_path": "spans", "read_spans": "spans"}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(f"repro.obs.{_LAZY[name]}")
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def summarize(trace_dir):
    """Render a ``--trace`` directory as ASCII tables.

    Thin lazy wrapper around :func:`repro.obs.report.summarize` so that
    ``python -m repro.obs.report`` does not double-import the module.
    """
    from repro.obs.report import summarize as _summarize
    return _summarize(trace_dir)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_RECORDER",
    "NullRecorder",
    "ObsRecorder",
    "Profiler",
    "Recorder",
    "RunManifest",
    "Span",
    "SpanCollector",
    "StructuredLogger",
    "Tracer",
    "critical_path",
    "get_recorder",
    "git_revision",
    "new_run_id",
    "observed_run",
    "prometheus_text",
    "read_events",
    "read_spans",
    "render_hotspots",
    "render_snapshot",
    "resolve_recorder",
    "summarize",
    "use_recorder",
]
