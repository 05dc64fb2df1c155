"""The recorder facade the instrumented hot paths talk to.

Instrumentation hooks in the solvers and the simulator never touch a
registry or a tracer directly — they call a :class:`Recorder`:

* :class:`NullRecorder` is the default everywhere. Every method is a no-op
  and ``enabled`` is False, so hot loops guard their bookkeeping with one
  attribute check and skip it entirely. Analytic results are bit-identical
  with observability off because the null path performs no arithmetic.
* :class:`ObsRecorder` fans updates out to a :class:`~repro.obs.metrics.MetricsRegistry`
  and, optionally, a :class:`~repro.obs.tracer.Tracer` — every ``event``
  also bumps an ``events.<kind>`` counter so the metrics table doubles as
  an event census.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover — annotation only, avoids an eager
    from repro.obs.spans import SpanCollector  # import of the spans CLI module

#: Shared reusable no-op context manager for the null timer.
_NULL_CONTEXT = nullcontext()

#: Span statuses that count as faults (``spans.faulted``). Defined here —
#: not in :mod:`repro.obs.spans`, which re-exports it — so importing the
#: recorder facade does not pull in the spans module: ``python -m
#: repro.obs.spans`` would otherwise find it pre-imported and warn.
FAULT_STATUSES = frozenset(
    {"dropped", "partitioned", "unroutable", "cancelled", "silent"})


@runtime_checkable
class Recorder(Protocol):
    """What an instrumentation hook may call."""

    enabled: bool

    def event(self, kind: str, **payload) -> None:
        """Record a structured event."""

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a counter."""

    def gauge(self, name: str, value: float) -> None:
        """Set a gauge."""

    def observe(self, name: str, value: float) -> None:
        """Add a sample to a histogram."""

    def timer(self, name: str):
        """Context manager timing a block into a histogram."""

    def span_start(self, name: str, parent=None, trace=None,
                   virtual_time: float = 0.0, **tags):
        """Open a causal span; returns its id (None when spans are off)."""

    def span_end(self, span_id, status: str = "ok",
                 virtual_time=None, **tags) -> None:
        """Close a span opened by :meth:`span_start` (None id: no-op)."""


class NullRecorder:
    """The zero-overhead disabled recorder."""

    enabled = False

    def event(self, kind: str, **payload) -> None:
        pass

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def timer(self, name: str):
        return _NULL_CONTEXT

    def span_start(self, name: str, parent=None, trace=None,
                   virtual_time: float = 0.0, **tags):
        return None

    def span_end(self, span_id, status: str = "ok",
                 virtual_time=None, **tags) -> None:
        pass

    def __repr__(self) -> str:
        return "NullRecorder()"


#: Module-level singleton — the default recorder everywhere.
NULL_RECORDER = NullRecorder()


class ObsRecorder:
    """An enabled recorder backed by a registry, an optional tracer, and
    an optional span collector."""

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        spans: Optional[SpanCollector] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.spans = spans

    def event(self, kind: str, **payload) -> None:
        self.registry.inc(f"events.{kind}")
        if self.tracer is not None:
            self.tracer.emit(kind, payload)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.registry.inc(name, amount)

    def gauge(self, name: str, value: float) -> None:
        self.registry.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    def timer(self, name: str):
        return self.registry.timer(name)

    def span_start(self, name: str, parent=None, trace=None,
                   virtual_time: float = 0.0, **tags):
        if self.spans is None:
            return None
        self.registry.inc("spans.opened")
        return self.spans.start(name, parent=parent, trace=trace,
                                virtual_time=virtual_time, **tags)

    def span_end(self, span_id, status: str = "ok",
                 virtual_time=None, **tags) -> None:
        if self.spans is None or span_id is None:
            return
        self.registry.inc("spans.closed")
        if status in FAULT_STATUSES:
            self.registry.inc("spans.faulted")
        self.spans.end(span_id, status=status,
                       virtual_time=virtual_time, **tags)

    def __repr__(self) -> str:
        traced = self.tracer.path if self.tracer is not None else None
        return f"ObsRecorder(tracer={str(traced)!r})"


def finish_spans(recorder: Recorder,
                 virtual_time: Optional[float] = None) -> None:
    """Close ``recorder``'s still-open spans as ``cancelled`` and count them.

    Called where a run ends, so every span log balances; a no-op without
    a span collector.
    """
    spans = getattr(recorder, "spans", None)
    if spans is not None and spans.open_count:
        cancelled = spans.finish(virtual_time=virtual_time)
        recorder.count("spans.closed", cancelled)
        recorder.count("spans.faulted", cancelled)
