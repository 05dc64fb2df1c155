"""One run scaffold: the trace directory and live metrics of a CLI run.

Every observed entry point (``python -m repro net``/``sharded``/``serve``
and ``python -m repro.experiments``) opens and closes its observability
through :func:`observed_run`::

    with observed_run(args.seed, args, args.trace,
                      args.serve_metrics) as recorder:
        result = run_net_dtu(population, config, recorder=recorder)

With no output asked for the block gets the null recorder.  With
``trace`` the block gets an :class:`~repro.obs.recorder.ObsRecorder`
writing ``manifest.json`` (the seed plus every parsed argument),
``events.jsonl`` and ``spans.jsonl`` into the directory, and
``metrics.json`` last, once the block has ended and the other files are
closed; ``serve_metrics`` serves the same registry as a Prometheus
``/metrics`` endpoint while the block lasts.
The span collector is thread-safe, so one recorder serves a daemon's
loop thread (its coordinator and its request handlers) and any caller on
another thread alike.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import NULL_RECORDER, ObsRecorder, Recorder, finish_spans
from repro.obs.serve import MetricsServer
from repro.obs.tracer import Tracer


@contextmanager
def observed_run(
    seed: Optional[int],
    args,
    trace: Optional[str] = None,
    serve_metrics: Optional[int] = None,
    metrics: bool = False,
    quiet: bool = False,
) -> Iterator[Recorder]:
    """Yield the run's recorder; write and close its outputs on exit.

    The null recorder when no output is asked for; a registry-only
    recorder for ``metrics`` alone.  ``args`` is the parsed
    :class:`argparse.Namespace`: the manifest records all of it but the
    subcommand handler.  Unless ``quiet``, the exporter's URL is printed
    when it starts and the trace directory once the block has finished.
    """
    if trace is None and serve_metrics is None and not metrics:
        yield NULL_RECORDER
        return
    tracer = spans = server = None
    if trace is not None:
        from repro.obs.spans import SPANS_FILE, SpanCollector

        trace = Path(trace)
        trace.mkdir(parents=True, exist_ok=True)
        config = {key: value for key, value in vars(args).items()
                  if key != "func"}
        manifest = RunManifest.capture(seed=seed, config=config)
        manifest.save(trace / "manifest.json")
        tracer = Tracer(trace / "events.jsonl", run_id=manifest.run_id)
        spans = SpanCollector(trace / SPANS_FILE)
    recorder = ObsRecorder(MetricsRegistry(), tracer, spans=spans)
    try:
        if serve_metrics is not None:
            server = MetricsServer(recorder.registry.snapshot,
                                   port=serve_metrics).start()
            if not quiet:
                print(f"serving live metrics at {server.url}")
        yield recorder
    finally:
        if server is not None:
            server.stop()
        if trace is not None:
            finish_spans(recorder)
            spans.close()
            tracer.close()
            # Last: once metrics.json exists, every event and span is on
            # disk (the rule repro.obs.spans and repro.obs.watch read).
            recorder.registry.save(trace / "metrics.json")
    if trace is not None and not quiet:
        print(f"trace written to {trace} (summarise with: python -m "
              f"repro.obs.report {trace}; span trees with: python -m "
              f"repro.obs.spans {trace})")
