"""Tail-follow a trace directory and render live convergence.

``python -m repro.obs.watch DIR`` reads the ``events.jsonl`` a run is
*currently writing* (``--trace DIR`` on any CLI) and renders the DTU
convergence state — γ̂ / measured γ / step size η / oscillation counter L
— plus event throughput, refreshing as new lines land::

    python -m repro.experiments table3 --trace out/ &
    python -m repro.obs.watch out/ --follow

The reader is incremental (it remembers its file offset and only parses
appended lines) and tolerant of torn writes: a truncated final line is
left in the buffer until the writer completes it, exactly the property
needed to follow a file mid-``write()``. One-shot mode (the default)
renders the current state once; ``--follow`` polls until the run has
finished, an interrupt, or ``--max-updates`` renders. A run has finished
at its ``*.done`` event, or once its ``metrics.json`` exists: the run
scaffold (:func:`repro.obs.run.observed_run`) writes that file after it
closes ``events.jsonl``, so the poll after it appears reads the last
event of a run that emits no ``*.done`` (``repro.experiments fig2``).

A sharded run (``repro sharded``) keeps one γ̂ series per site, from its
``sharded.round`` events; each site also emits the single-site
``net.round``, which carries no site and is skipped once the trace has
opened with ``sharded.start``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.report import EVENTS_FILE, METRICS_FILE
from repro.utils.asciiplot import line_plot
from repro.utils.tables import format_table

#: Event kinds carrying a convergence sample, with their field names.
_CONVERGENCE_KINDS = {
    "dtu.iteration": ("gamma_hat", "gamma", "eta", "L"),
    "net.round": ("gamma_hat", "measured", None, None),
}
#: Event kinds that end a run, whatever its runner.
_DONE_KINDS = ("dtu.done", "net.done", "sharded.done")


class TraceWatcher:
    """Incremental reader + renderer for a live trace directory."""

    def __init__(self, trace_dir: Union[str, Path]):
        self.trace_dir = Path(trace_dir)
        if not self.trace_dir.is_dir():
            raise FileNotFoundError(
                f"trace directory {self.trace_dir} does not exist")
        self.events_path = self.trace_dir / EVENTS_FILE
        self._offset = 0
        self._partial = ""
        self.events_seen = 0
        self.times: List[float] = []        # iteration index (x axis)
        self.gamma_hat: List[float] = []
        self.measured: List[float] = []
        self.eta: List[float] = []
        self.counter: List[float] = []      # oscillation counter L
        self.silent_rounds = 0
        #: Sharded runs: each site's γ̂ series, by site index.
        self.sharded = False
        self.site_gamma_hat: Dict[int, List[float]] = {}
        self.first_mono: Optional[float] = None
        self.last_mono: Optional[float] = None
        self.done_payload: Optional[dict] = None

    # -- ingestion -----------------------------------------------------
    def finished(self) -> bool:
        """True once the run scaffold has written ``metrics.json``.

        Check it *before* a poll: the file appears only after the events
        file is closed, so that poll reads the run's last event.
        """
        return (self.trace_dir / METRICS_FILE).exists()

    def poll(self) -> int:
        """Consume newly appended events; returns how many were read."""
        if not self.events_path.exists():
            return 0
        with self.events_path.open() as handle:
            handle.seek(self._offset)
            chunk = handle.read()
            self._offset = handle.tell()
        if not chunk:
            return 0
        text = self._partial + chunk
        lines = text.split("\n")
        # The final element is either "" (clean newline) or a torn tail
        # the writer has not finished yet — keep it for the next poll.
        self._partial = lines.pop()
        consumed = 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            self._ingest(record)
            consumed += 1
        return consumed

    def _ingest(self, record: dict) -> None:
        self.events_seen += 1
        mono = record.get("mono")
        if mono is not None:
            if self.first_mono is None:
                self.first_mono = mono
            self.last_mono = mono
        kind = record.get("kind", "")
        data = record.get("data") or {}
        fields = _CONVERGENCE_KINDS.get(kind)
        if kind == "sharded.start":
            self.sharded = True
        elif kind == "sharded.round":
            self.site_gamma_hat.setdefault(int(data["site"]), []).append(
                float(data.get("gamma_hat", float("nan"))))
        elif fields is not None and not self.sharded:
            hat_key, measured_key, eta_key, counter_key = fields
            self.times.append(float(len(self.times)))
            self.gamma_hat.append(float(data.get(hat_key, float("nan"))))
            self.measured.append(
                float(data.get(measured_key, float("nan"))))
            if eta_key is not None and eta_key in data:
                self.eta.append(float(data[eta_key]))
            if counter_key is not None and counter_key in data:
                self.counter.append(float(data[counter_key]))
        elif kind == "net.silence":
            self.silent_rounds += 1
            if "eta" in data:
                self.eta.append(float(data["eta"]))
        elif kind in _DONE_KINDS:
            self.done_payload = data

    # -- rendering -----------------------------------------------------
    def render(self, width: int = 70, height: int = 12) -> str:
        """The current convergence picture as text."""
        if self.events_seen == 0:
            return (f"{self.events_path}: no events yet "
                    f"(waiting for the writer)")
        blocks = []
        rows = [("events", self.events_seen),
                ("convergence samples", len(self.times)),
                ("silent rounds", self.silent_rounds)]
        if self.gamma_hat:
            rows.append(("γ̂ (latest)", f"{self.gamma_hat[-1]:.6f}"))
        if self.measured:
            rows.append(("measured γ (latest)", f"{self.measured[-1]:.6f}"))
        for site, series in sorted(self.site_gamma_hat.items()):
            rows.append((f"site {site} γ̂ (latest, {len(series)} rounds)",
                         f"{series[-1]:.6f}"))
        if self.eta:
            rows.append(("η (latest)", f"{self.eta[-1]:.6f}"))
        if self.counter:
            rows.append(("L (latest)", f"{self.counter[-1]:g}"))
        if self.first_mono is not None and self.last_mono is not None \
                and self.last_mono > self.first_mono:
            rate = (self.events_seen - 1) / (self.last_mono - self.first_mono)
            rows.append(("event rate", f"{rate:.1f}/s"))
        if self.done_payload is not None:
            rows.append(("run finished",
                         f"converged={self.done_payload.get('converged')}"))
        blocks.append(format_table(headers=("signal", "value"), rows=rows,
                                   title=f"Live run — {self.trace_dir}"))
        if len(self.times) >= 2:
            series = {"γ̂": self.gamma_hat}
            if any(v == v for v in self.measured):   # any non-NaN
                series["γ"] = self.measured
            blocks.append(line_plot(
                self.times, series, width=width, height=height,
                title="convergence", x_label="iteration",
            ))
        rounds = max(map(len, self.site_gamma_hat.values()), default=0)
        if rounds >= 2:
            # One line per site; a site with fewer rounds ends early.
            series = {
                f"γ̂ site {site}":
                    values + [float("nan")] * (rounds - len(values))
                for site, values in sorted(self.site_gamma_hat.items())}
            blocks.append(line_plot(
                list(range(rounds)), series, width=width, height=height,
                title="convergence per site", x_label="round",
            ))
        return "\n\n".join(blocks)


def watch(
    trace_dir: Union[str, Path],
    follow: bool = False,
    interval: float = 0.5,
    max_updates: Optional[int] = None,
    stream=None,
) -> TraceWatcher:
    """Render ``trace_dir`` to ``stream`` (stdout), optionally following.

    In follow mode a new frame is printed whenever fresh events arrive,
    until ``max_updates`` frames have been shown, the run emits its
    ``*.done`` event, a poll has read a finished run's events to the end
    (:meth:`TraceWatcher.finished`), or the user interrupts.
    """
    stream = stream if stream is not None else sys.stdout
    watcher = TraceWatcher(trace_dir)
    finished = watcher.finished()
    watcher.poll()
    print(watcher.render(), file=stream)
    updates = 1
    try:
        while follow and (max_updates is None or updates < max_updates):
            if finished or watcher.done_payload is not None:
                break
            time.sleep(interval)
            finished = watcher.finished()
            if watcher.poll():
                print("", file=stream)
                print(watcher.render(), file=stream)
                updates += 1
    except KeyboardInterrupt:
        pass
    return watcher


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.watch",
        description="Follow a trace directory and render live "
                    "convergence (γ̂/η/L) and event rates.",
    )
    parser.add_argument("trace_dir", help="directory written by --trace")
    parser.add_argument("--follow", "-f", action="store_true",
                        help="keep polling for new events (Ctrl-C to stop)")
    parser.add_argument("--interval", type=float, default=0.5,
                        help="poll period in seconds (default 0.5)")
    parser.add_argument("--max-updates", type=int, default=None,
                        help="stop after this many rendered frames")
    args = parser.parse_args(argv)
    try:
        watch(args.trace_dir, follow=args.follow, interval=args.interval,
              max_updates=args.max_updates)
    except (FileNotFoundError, NotADirectoryError, PermissionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
