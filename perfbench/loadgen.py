"""Load generation for the serve workloads: one process, ≤ 2 connections.

Two disciplines, both over keep-alive HTTP/1.1 connections:

* :func:`closed_loop` — each connection sends its next request only after
  the previous reply arrived (gateways that wait for their answer).
  Latency is reply time minus send time.
* :func:`open_loop` — requests are due on a fixed schedule whatever the
  server does (independent devices).  Each connection takes the next due
  request, waits until it is due (never past it), sends it and waits for
  the reply.  Latency is reply time minus **due** time, so a stall is
  charged to every request queued behind it, and ``lag`` (send time minus
  due time) says how late the generator itself ran.

The request bodies and the schedule are built in advance from the seed,
so the timed loop only sends, receives and stamps.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


@dataclass
class Sample:
    """One request's fate: index into the body list, stamps, status."""

    index: int
    due: float          # when it should have been sent (closed loop: = sent)
    sent: float
    done: float
    status: int         # HTTP status; 0 for a transport error
    body: Optional[bytes] = None   # kept only for requests picked to check

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


class Connection:
    """One keep-alive HTTP connection that reconnects after an error."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._address = (host, port, timeout)
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> tuple:
        """``(status, body)``; raises one of ``TRANSPORT_ERRORS``."""
        if self._conn is None:
            host, port, timeout = self._address
            self._conn = http.client.HTTPConnection(host, port,
                                                    timeout=timeout)
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except TRANSPORT_ERRORS:
            self.close()
            raise

    def get_json(self, path: str) -> tuple:
        status, body = self.request("GET", path)
        return status, json.loads(body) if status == 200 else None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def decide_bodies(rng: np.random.Generator, n_devices: int, batch: int,
                  count: int) -> List[bytes]:
    """``count`` pre-encoded ``/decide`` bodies of ``batch`` random devices."""
    ids = rng.integers(0, n_devices, size=(count, batch))
    if batch == 1:
        return [b'{"device": %d}' % int(row[0]) for row in ids]
    return [json.dumps({"devices": row.tolist()}).encode() for row in ids]


def poisson_schedule(rng: np.random.Generator, rate: float,
                     duration: float) -> np.ndarray:
    """Due offsets (seconds from start) of a Poisson process at ``rate``."""
    expected = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=expected))
    return offsets[offsets < duration]


def _run_workers(worker: Callable[[int], None], connections: int) -> None:
    threads = [threading.Thread(target=worker, args=(k,), daemon=True)
               for k in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(send: Callable[[int, int], tuple], n_bodies: int,
                connections: int, duration: float,
                keep_every: int = 0,
                clock: Callable[[], float] = time.perf_counter
                ) -> List[Sample]:
    """Send bodies in order, round-robin over waiting connections.

    ``send(connection, index)`` performs request ``index`` on connection
    ``connection`` and returns ``(status, body)``.  Stops starting new
    requests once ``duration`` seconds have passed (or the bodies ran
    out); requests in flight complete.
    """
    lock = threading.Lock()
    counter = iter(range(n_bodies))
    samples: List[Sample] = []
    deadline = clock() + duration

    def worker(connection: int) -> None:
        while True:
            with lock:
                index = next(counter, None)
            if index is None or clock() >= deadline:
                return
            sent = clock()
            status, body = _attempt(send, connection, index)
            done = clock()
            keep = body if keep_every and index % keep_every == 0 else None
            with lock:
                samples.append(Sample(index, sent, sent, done, status, keep))

    _run_workers(worker, connections)
    return samples


def open_loop(send: Callable[[int, int], tuple], schedule: Sequence[float],
              connections: int, keep_every: int = 0,
              clock: Callable[[], float] = time.perf_counter,
              sleep: Callable[[float], None] = time.sleep) -> List[Sample]:
    """Send request ``i`` at ``start + schedule[i]``; time it from then."""
    lock = threading.Lock()
    counter = iter(range(len(schedule)))
    samples: List[Sample] = []
    start = clock()

    def worker(connection: int) -> None:
        while True:
            with lock:
                index = next(counter, None)
            if index is None:
                return
            due = start + float(schedule[index])
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            sent = clock()
            status, body = _attempt(send, connection, index)
            done = clock()
            keep = body if keep_every and index % keep_every == 0 else None
            with lock:
                samples.append(Sample(index, due, sent, done, status, keep))

    _run_workers(worker, connections)
    return samples


def _attempt(send, connection: int, index: int) -> tuple:
    try:
        return send(connection, index)
    except TRANSPORT_ERRORS:
        return 0, None
