"""Causal span tracing: timed, parent-linked operation records.

A *span* is one timed operation — a coordinator round, a message in
flight, a device best-response — with a start and end on the **virtual**
clock, a parent span (what caused it), a trace id grouping one causal
tree (one DTU round), and structured tags. Spans turn the net runtime's
message soup into per-round trees::

    round ─┬─ msg.GammaBroadcast(edge→n) ── device.best_response(n)
           │                                  └─ msg.ThresholdReport(n→edge)
           │                                       └─ report.receive(n)
           └─ msg.GammaBroadcast(edge→m)   [status=dropped]

Design constraints, in order:

* **Determinism** — span ids come from a plain counter and every recorded
  time is virtual-clock time, so two same-seed runs produce bit-identical
  span logs (pinned by ``tests/test_net_spans.py``). Wall-clock bounds are
  recorded alongside for profiling but excluded from the canonical form.
* **Closure** — every opened span must be closed. Lost messages close
  with a fault status (``dropped`` / ``partitioned`` / ``unroutable``)
  at the moment of the drop; spans still open when a run ends are closed
  by :meth:`SpanCollector.finish` with status ``cancelled``.
* **Zero overhead off** — the hot paths call the recorder facade
  (:meth:`~repro.obs.recorder.ObsRecorder.span_start`), which is a no-op
  on the null recorder and returns ``None`` when no collector is
  attached.

``python -m repro.obs.spans DIR`` renders a ``spans.jsonl`` file back
into per-round critical paths and per-actor timelines (see :func:`render`).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.recorder import FAULT_STATUSES as _FAULT_STATUSES
from repro.obs.report import METRICS_FILE
from repro.obs.tracer import _json_default
from repro.utils.tables import format_table

SPANS_FILE = "spans.jsonl"

#: Span statuses that mean the operation failed rather than completed.
#: Canonically defined on the recorder facade (see the note there);
#: re-exported here because it is span vocabulary.
FAULT_STATUSES = _FAULT_STATUSES


@dataclass
class Span:
    """One timed, causally linked operation."""

    id: int
    name: str
    trace: int                      # causal-tree id (DTU round; 0 = run)
    parent: Optional[int] = None    # id of the causing span
    t_start: float = 0.0            # virtual-clock bounds
    t_end: Optional[float] = None
    wall_start: float = 0.0         # wall-clock bounds (profiling only)
    wall_end: Optional[float] = None
    status: str = "open"
    tags: Dict[str, object] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.t_end is None

    @property
    def duration(self) -> float:
        """Virtual-time duration (0.0 while still open)."""
        return (self.t_end - self.t_start) if self.t_end is not None else 0.0

    @property
    def faulted(self) -> bool:
        return self.status in FAULT_STATUSES

    def canonical(self) -> tuple:
        """The deterministic identity of the span.

        Everything except the wall-clock bounds — the tuple two same-seed
        runs must agree on bit for bit.
        """
        return (self.id, self.name, self.trace, self.parent,
                self.t_start, self.t_end, self.status,
                tuple(sorted(self.tags.items())))

    def as_record(self) -> dict:
        """A plain dict for JSONL serialisation."""
        return {
            "id": self.id, "name": self.name, "trace": self.trace,
            "parent": self.parent,
            "t_start": self.t_start, "t_end": self.t_end,
            "wall_start": self.wall_start, "wall_end": self.wall_end,
            "status": self.status, "tags": self.tags,
        }


class SpanCollector:
    """Creates, closes, and optionally persists spans.

    ``path`` attaches a JSONL sink: each span is written once, when it
    closes, so a live run's ``spans.jsonl`` can be tail-followed. All
    spans are also kept in memory (ordered by id) for in-process
    assertions and rendering. One lock guards the id counter, the span
    table and the sink, so threads may share a collector: ids stay
    unique and no two lines interleave.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self._spans: Dict[int, Span] = {}
        self._open: set = set()
        self._next_id = 0
        self._epoch = time.monotonic()
        self._lock = threading.Lock()
        self._file: Optional[io.TextIOWrapper] = None
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("w")

    # -- lifecycle -----------------------------------------------------
    def start(
        self,
        name: str,
        parent: Optional[int] = None,
        trace: Optional[int] = None,
        virtual_time: float = 0.0,
        **tags,
    ) -> int:
        """Open a span; returns its id.

        ``trace`` defaults to the parent's trace (0 — the run-level
        trace — for roots), so a whole causal tree shares one id without
        every call site threading it through.
        """
        with self._lock:
            if trace is None:
                parent_span = self._spans.get(parent) \
                    if parent is not None else None
                trace = parent_span.trace if parent_span is not None else 0
            span_id = self._next_id
            self._next_id += 1
            self._spans[span_id] = Span(
                id=span_id, name=name, trace=int(trace), parent=parent,
                t_start=float(virtual_time),
                wall_start=time.monotonic() - self._epoch,
                tags=dict(tags),
            )
            self._open.add(span_id)
        return span_id

    def end(
        self,
        span_id: Optional[int],
        status: str = "ok",
        virtual_time: Optional[float] = None,
        **tags,
    ) -> None:
        """Close a span (no-op for ``None`` ids, so call sites stay flat)."""
        if span_id is None:
            return
        with self._lock:
            self._close(span_id, status, virtual_time, tags)

    def finish(self, virtual_time: Optional[float] = None,
               status: str = "cancelled") -> int:
        """Close every still-open span (in id order); returns the count.

        Called when a run ends: messages still in flight at the horizon
        and half-finished rounds become ``cancelled`` spans instead of
        dangling ones.
        """
        with self._lock:
            leftover = sorted(self._open)
            for span_id in leftover:
                self._close(span_id, status, virtual_time, {})
        return len(leftover)

    def close(self) -> None:
        """Flush and release the JSONL sink (spans stay in memory)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def _close(self, span_id: int, status: str,
               virtual_time: Optional[float], tags: dict) -> None:
        """Close one open span and write it (the caller holds the lock)."""
        span = self._spans.get(span_id)
        if span is None or not span.open:
            raise ValueError(f"span {span_id} is not open")
        span.t_end = float(virtual_time) if virtual_time is not None \
            else span.t_start
        span.wall_end = time.monotonic() - self._epoch
        span.status = status
        if tags:
            span.tags.update(tags)
        self._open.discard(span_id)
        if self._file is not None:
            self._file.write(
                json.dumps(span.as_record(), default=_json_default) + "\n")

    # -- inspection ----------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """All spans, ordered by id (open ones included)."""
        with self._lock:
            return [self._spans[i] for i in sorted(self._spans)]

    @property
    def open_count(self) -> int:
        return len(self._open)

    def canonical(self) -> List[tuple]:
        """Deterministic log for bit-identity comparison across runs."""
        return [span.canonical() for span in self.spans]

    def __len__(self) -> int:
        return len(self._spans)

    def __repr__(self) -> str:
        return (f"SpanCollector({len(self._spans)} spans, "
                f"{len(self._open)} open)")


# ---------------------------------------------------------------------------
# Rendering: spans.jsonl -> per-round critical paths + per-actor timelines
# ---------------------------------------------------------------------------


def read_spans(path: Union[str, Path]) -> List[Span]:
    """Load the spans of a ``spans.jsonl`` file, ordered by id.

    A truncated final line (run still being written, or killed mid-write)
    is dropped, matching :func:`repro.obs.tracer.read_events`.
    """
    spans = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            spans.append(Span(
                id=record["id"], name=record["name"],
                trace=record.get("trace", 0), parent=record.get("parent"),
                t_start=record.get("t_start", 0.0),
                t_end=record.get("t_end"),
                wall_start=record.get("wall_start", 0.0),
                wall_end=record.get("wall_end"),
                status=record.get("status", "open"),
                tags=record.get("tags") or {},
            ))
    return sorted(spans, key=lambda span: span.id)


def _label(span: Span) -> str:
    actor = span.tags.get("actor")
    return span.name if actor is None else f"{span.name}[{actor}]"


def critical_path(spans: List[Span]) -> List[Span]:
    """The root→leaf chain with the latest virtual completion time.

    In a message-passing round the measure fires only after the last
    usable report lands, so the chain ending latest *is* the round's
    wall — the sequence of causally dependent operations that determined
    when the round could close.
    """
    if not spans:
        return []
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    by_id = {span.id: span for span in spans}
    roots = [span for span in spans
             if span.parent is None or span.parent not in by_id]
    # Latest-finishing leaf, then walk parents back up to the root.
    latest: Dict[int, float] = {}

    def finish_time(span: Span) -> float:
        if span.id in latest:
            return latest[span.id]
        own = span.t_end if span.t_end is not None else span.t_start
        best = max((finish_time(c) for c in children.get(span.id, ())),
                   default=own)
        latest[span.id] = max(own, best)
        return latest[span.id]

    root = max(roots, key=lambda span: (finish_time(span), -span.id))
    path = [root]
    while True:
        kids = children.get(path[-1].id)
        if not kids:
            break
        path.append(max(kids, key=lambda s: (finish_time(s), -s.id)))
    return path


def render(spans: List[Span], max_rounds: int = 20) -> str:
    """Per-round critical paths + per-actor timelines as ASCII tables."""
    if not spans:
        return "no spans recorded"
    blocks = []

    # -- status census
    statuses: Dict[Tuple[str, str], int] = {}
    for span in spans:
        key = (span.name, span.status)
        statuses[key] = statuses.get(key, 0) + 1
    blocks.append(format_table(
        headers=("span", "status", "count"),
        rows=[(name, status, count)
              for (name, status), count in sorted(statuses.items())],
        title=f"Span census ({len(spans)} spans)",
    ))

    # -- per-round critical paths (trace 0 is run-level housekeeping)
    rounds: Dict[int, List[Span]] = {}
    for span in spans:
        if span.trace > 0:
            rounds.setdefault(span.trace, []).append(span)
    if rounds:
        rows = []
        shown = sorted(rounds)[:max_rounds]
        for trace in shown:
            tree = rounds[trace]
            path = critical_path(tree)
            start = min(span.t_start for span in tree)
            end = max(span.t_end if span.t_end is not None else span.t_start
                      for span in tree)
            rows.append((
                trace, len(tree),
                sum(1 for span in tree if span.faulted),
                f"{start:g}..{end:g}",
                " -> ".join(_label(span) for span in path),
            ))
        title = f"Per-round critical paths ({len(rounds)} rounds"
        if len(rounds) > len(shown):
            title += f", first {len(shown)} shown"
        blocks.append(format_table(
            headers=("round", "spans", "faulted", "t [virtual]",
                     "critical path"),
            rows=rows,
            title=title + ")",
        ))

    # -- per-actor timelines
    actors: Dict[str, List[Span]] = {}
    for span in spans:
        actor = span.tags.get("actor")
        if actor is not None:
            actors.setdefault(str(actor), []).append(span)
    if actors:
        rows = []
        for actor in sorted(actors, key=lambda a: (len(a), a)):
            owned = actors[actor]
            busy = sum(span.duration for span in owned)
            first = min(span.t_start for span in owned)
            last = max(span.t_end if span.t_end is not None else span.t_start
                       for span in owned)
            faulted = sum(1 for span in owned if span.faulted)
            rows.append((actor, len(owned), faulted,
                         f"{first:g}..{last:g}", round(busy, 6)))
        blocks.append(format_table(
            headers=("actor", "spans", "faulted", "active [virtual]",
                     "busy [virtual]"),
            rows=rows,
            title="Per-actor timelines",
        ))
    return "\n\n".join(blocks)


def summarize_dir(trace_dir: Union[str, Path]) -> str:
    """Render the ``spans.jsonl`` of a trace directory.

    A trace with no spans is finished when its ``metrics.json`` exists
    (the run scaffold writes it last): that renders as one line saying
    the run recorded none.  Without it the run may still be going, and
    that is an error.
    """
    trace_dir = Path(trace_dir)
    if not trace_dir.is_dir():
        raise FileNotFoundError(
            f"trace directory {trace_dir} does not exist")
    path = trace_dir / SPANS_FILE
    if not path.exists():
        raise FileNotFoundError(
            f"{trace_dir} has no {SPANS_FILE} (was the run traced with "
            f"spans enabled?)")
    spans = read_spans(path)
    if not spans:
        if (trace_dir / METRICS_FILE).exists():
            return f"{trace_dir}: the run finished and recorded no spans"
        raise FileNotFoundError(
            f"{path} is empty — no completed spans yet")
    return render(spans)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.spans",
        description="Render a trace directory's span log as per-round "
                    "critical paths and per-actor timelines.",
    )
    parser.add_argument("trace_dir",
                        help="directory containing spans.jsonl")
    args = parser.parse_args(argv)
    try:
        print(summarize_dir(args.trace_dir))
    except (FileNotFoundError, NotADirectoryError, PermissionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
