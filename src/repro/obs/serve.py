"""Live metrics export: Prometheus text format over stdlib HTTP.

:func:`prometheus_text` renders a :meth:`MetricsRegistry.snapshot
<repro.obs.metrics.MetricsRegistry.snapshot>`-shaped dict in the
`Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_:
counters become ``repro_<name>_total``, gauges ``repro_<name>``, and
histograms a summary-style family (``_count`` / ``_sum`` plus ``min`` /
``max`` / ``mean`` gauges). Dotted instrument names are sanitised to the
``[a-zA-Z_][a-zA-Z0-9_]*`` charset Prometheus requires.

:class:`MetricsServer` serves ``GET /metrics`` from a live snapshot
callable on a private event-loop thread (a stdlib ``http.server``
handler on :class:`repro.utils.httpd.HttpDaemon` — no dependencies),
so any instrumented run becomes scrape-able with an opt-in
``--serve-metrics PORT`` flag::

    python -m repro.experiments table3 --metrics --serve-metrics 9100 &
    curl localhost:9100/metrics

The snapshot callable runs on the server's loop thread while the run
mutates the registry on the main thread; under the GIL the worst case is a
dict-changed-during-iteration error, which the handler absorbs by
retrying once and, failing that, returning 503 — a scrape may miss, the
run is never perturbed.
"""

from __future__ import annotations

import math
import re
from typing import Callable

from repro.utils.httpd import HttpDaemon, QuietHandler

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

__all__ = ["MetricsServer", "prometheus_text", "sanitize_metric_name"]


def sanitize_metric_name(name: str, prefix: str = "repro") -> str:
    """Map a dotted instrument name onto the Prometheus charset."""
    cleaned = _NAME_RE.sub("_", name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{prefix}_{cleaned}" if prefix else cleaned


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def prometheus_text(snapshot: dict, prefix: str = "repro") -> str:
    """Render a metrics snapshot in Prometheus text exposition format."""
    lines = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        metric = sanitize_metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, gauge in sorted((snapshot.get("gauges") or {}).items()):
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(gauge['value'])}")
    for name, hist in sorted((snapshot.get("histograms") or {}).items()):
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {_format_value(hist['count'])}")
        lines.append(f"{metric}_sum {_format_value(hist['sum'])}")
        for stat in ("mean", "min", "max"):
            value = hist.get(stat)
            if value is None:
                continue
            stat_metric = f"{metric}_{stat}"
            lines.append(f"# TYPE {stat_metric} gauge")
            lines.append(f"{stat_metric} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else "\n"


class _Handler(QuietHandler):
    server_version = "repro-obs/1.0"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.split("?", 1)[0] not in ("/", "/metrics"):
            self.send_error(404, "only /metrics is served")
            return
        try:
            body = self._render()
        except RuntimeError:
            # Registry dicts resized mid-iteration; one retry, then 503.
            try:
                body = self._render()
            except RuntimeError:
                self.send_error(503, "registry busy, retry the scrape")
                return
        self.send_text(200, body,
                       content_type="text/plain; version=0.0.4; "
                                    "charset=utf-8")

    def _render(self) -> str:
        return prometheus_text(self.server.snapshot_fn(),  # type: ignore[attr-defined]
                               prefix=self.server.prefix)  # type: ignore[attr-defined]


class MetricsServer:
    """A ``/metrics`` endpoint on a private loop thread.

    A thin wrapper over :class:`repro.utils.httpd.HttpDaemon` (the shared
    stdlib-HTTP plumbing the decision daemon runs on its coordinator's
    loop) that injects the snapshot callable and prefix into the
    handler; every scrape connection is a callback on that one thread,
    which :meth:`stop` closes and joins.

    Parameters
    ----------
    snapshot_fn:
        Zero-argument callable returning a snapshot dict — typically
        ``registry.snapshot`` of the run's live
        :class:`~repro.obs.metrics.MetricsRegistry`.
    port:
        TCP port; ``0`` binds an ephemeral port (see :attr:`port` after
        :meth:`start` for the resolved value — what the tests use).
    host:
        Bind address; loopback by default.
    """

    def __init__(self, snapshot_fn: Callable[[], dict], port: int = 0,
                 host: str = "127.0.0.1", prefix: str = "repro"):
        self._daemon = HttpDaemon(
            _Handler, port=port, host=host, name="repro-metrics-server",
            snapshot_fn=snapshot_fn, prefix=prefix,
        )

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral requests after start)."""
        return self._daemon.port

    @property
    def url(self) -> str:
        return f"{self._daemon.url}/metrics"

    def start(self) -> "MetricsServer":
        if self._daemon.running:
            raise RuntimeError("metrics server already started")
        self._daemon.start()
        return self

    def stop(self) -> None:
        self._daemon.stop()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "serving" if self._daemon.running else "stopped"
        return f"MetricsServer({self.url!r}, {state})"
