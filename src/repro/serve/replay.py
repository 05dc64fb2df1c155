"""Seeded load-test client for the decision daemon.

:func:`run_replay` drives a running :class:`~repro.serve.httpd.DecisionServer`
with synthetic decision traffic and measures what a client actually
sees — throughput, latency percentiles, shed rate:

* **open loop** (``rate > 0``): request due times are drawn up front
  from a seeded Poisson process (cumulative exponential gaps) and
  workers fire on schedule regardless of how fast responses return — the
  arrival pattern that actually exposes queueing collapse, which a
  closed loop hides by self-throttling.  Each latency runs from the
  request's due time, so a stall is charged to every request queued
  behind it (no coordinated omission);
* **closed loop** (``rate = 0``): each worker fires its next request the
  moment the previous one answers — an upper-bound throughput probe;
* one persistent ``http.client.HTTPConnection`` per worker (HTTP/1.1
  keep-alive), reconnecting on socket errors, so the measurement is the
  server's latency and not TCP handshakes;
* every latency is kept exactly up to :data:`RESERVOIR` samples, beyond
  which a seeded reservoir sample keeps percentiles unbiased.

The :class:`ReplayReport` converts to a ``repro.bench/v1``-normalisable
workload row (:meth:`ReplayReport.workload`), which is how
``benchmarks/bench_serve.py`` and the CI smoke job write
``BENCH_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import os
import platform
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, List, Optional
from urllib.parse import urlsplit

import numpy as np

from repro.utils.validation import check_int_positive, check_non_negative

#: Latency samples kept exactly; past it, a seeded reservoir sample.
RESERVOIR = 200_000


def bench_document(workloads: Iterable[dict], quick: bool = False) -> dict:
    """A ``BENCH_serve.json``-shaped document around workload rows.

    Shared by ``python -m repro replay --output`` and
    ``benchmarks/bench_serve.py`` so the two writers cannot drift from
    what :func:`repro.obs.bench.normalize` expects.
    """
    from repro import __version__
    return {
        "benchmark": "serve",
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "workloads": list(workloads),
    }


@dataclass(frozen=True)
class ReplayConfig:
    """One replay run against a live daemon."""

    url: str                        #: server base url, e.g. http://127.0.0.1:8080
    requests: int = 1000            #: total /decide requests to issue
    batch: int = 1                  #: devices per request
    rate: float = 0.0               #: open-loop arrivals/s (0 = closed loop)
    workers: int = 4                #: concurrent client connections
    devices: Optional[int] = None   #: id space to draw from (None: ask /state)
    seed: int = 0
    timeout: float = 10.0           #: per-request socket timeout (seconds)
    wait_secs: float = 10.0         #: readiness poll budget on /healthz

    def __post_init__(self) -> None:
        check_int_positive("requests", self.requests)
        check_int_positive("batch", self.batch)
        check_non_negative("rate", self.rate)
        check_int_positive("workers", self.workers)
        if self.devices is not None:
            check_int_positive("devices", self.devices)


@dataclass
class ReplayReport:
    """What the client measured (all latencies in wall seconds)."""

    mode: str                       #: "open" or "closed"
    n_devices: int                  #: id space the batches were drawn from
    requests: int
    batch: int
    decisions: int                  #: requests_ok × batch
    wall_seconds: float
    ok: int
    shed: int                       #: 503 responses (admission control)
    errors: int                     #: transport failures + non-200/503
    p50_seconds: float
    p99_seconds: float
    p999_seconds: float
    latencies: np.ndarray = field(repr=False)

    @property
    def requests_per_second(self) -> float:
        return self.requests / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def decisions_per_second(self) -> float:
        return self.decisions / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    def workload(self, name: str) -> dict:
        """One ``repro.bench/v1`` workload row for ``BENCH_serve.json``."""
        return {
            "workload": name,
            "mode": self.mode,
            "n_users": int(self.n_devices),
            "requests": int(self.requests),
            "batch": int(self.batch),
            "decisions": int(self.decisions),
            "errors": int(self.errors),
            "shed_rate": float(self.shed_rate),
            "wall_seconds": float(self.wall_seconds),
            "requests_per_second": float(self.requests_per_second),
            "decisions_per_second": float(self.decisions_per_second),
            "p50_seconds": float(self.p50_seconds),
            "p99_seconds": float(self.p99_seconds),
            "p999_seconds": float(self.p999_seconds),
        }


class _Client:
    """One worker's persistent keep-alive connection."""

    def __init__(self, host: str, port: int, timeout: float):
        self.host, self.port, self.timeout = host, port, timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            self._conn.connect()
            # Mirror the server side: without TCP_NODELAY the Nagle +
            # delayed-ACK interaction adds ~40 ms to small keep-alive
            # round-trips and poisons every percentile.
            self._conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._conn

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> tuple:
        """Returns ``(status, parsed_body | None)``; raises ``OSError``."""
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
        except (http.client.HTTPException, OSError):
            self.close()             # poisoned connection: reconnect next time
            raise
        try:
            document = json.loads(payload) if payload else None
        except ValueError:
            document = None
        return response.status, document

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None


def _wait_ready(client: _Client, budget: float) -> None:
    deadline = time.monotonic() + budget
    while True:
        try:
            status, _ = client.request("GET", "/healthz")
            if status == 200:
                return
        except OSError:
            pass
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"server not healthy within {budget:g}s")
        time.sleep(0.05)


def _discover_devices(client: _Client) -> int:
    status, document = client.request("GET", "/state")
    if status != 200 or not isinstance(document, dict):
        raise RuntimeError(f"/state answered {status}")
    return int(document["population"])


def run_replay(config: ReplayConfig) -> ReplayReport:
    """Replay ``config`` against a live server; blocks until done."""
    parts = urlsplit(config.url)
    host = parts.hostname or "127.0.0.1"
    port = parts.port or (443 if parts.scheme == "https" else 80)

    probe = _Client(host, port, config.timeout)
    try:
        _wait_ready(probe, config.wait_secs)
        n_devices = config.devices if config.devices is not None \
            else _discover_devices(probe)
    finally:
        probe.close()

    rng = np.random.default_rng(config.seed)
    # Pre-encoded request bodies: the measurement is the server, not
    # the client's JSON encoder.
    bodies: List[bytes] = []
    for _ in range(config.requests):
        ids = rng.integers(0, n_devices, size=config.batch)
        if config.batch == 1:
            bodies.append(json.dumps({"device": int(ids[0])}).encode())
        else:
            bodies.append(json.dumps(
                {"devices": [int(i) for i in ids]}).encode())

    open_loop = config.rate > 0.0
    if open_loop:
        gaps = rng.exponential(1.0 / config.rate, size=config.requests)
        schedule = np.cumsum(gaps)          # seconds after start
    else:
        schedule = None

    counters = {"ok": 0, "shed": 0, "errors": 0, "decisions": 0, "seen": 0}
    latencies: List[float] = []
    lock_free_chunks: List[List[float]] = []    # one list per worker

    def worker(worker_index: int) -> dict:
        client = _Client(host, port, config.timeout)
        local = {"ok": 0, "shed": 0, "errors": 0, "decisions": 0}
        samples: List[float] = []
        sample_rng = np.random.default_rng(config.seed + 1 + worker_index)
        seen = 0
        try:
            for i in range(worker_index, config.requests, config.workers):
                if open_loop:
                    # Timed from when the request was due, not sent: a
                    # worker that fell behind charges its lateness to the
                    # requests that queued behind the slow reply.
                    t0 = start + float(schedule[i])
                    delay = t0 - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                else:
                    t0 = time.monotonic()
                try:
                    status, document = client.request(
                        "POST", "/decide", bodies[i])
                except OSError:
                    local["errors"] += 1
                    continue
                elapsed = time.monotonic() - t0
                if status == 200:
                    local["ok"] += 1
                    if isinstance(document, dict):
                        local["decisions"] += len(
                            document.get("decisions", ()))
                elif status == 503:
                    local["shed"] += 1
                else:
                    local["errors"] += 1
                # Reservoir sampling keeps percentile estimates unbiased
                # past the cap without storing millions of floats.
                seen += 1
                if len(samples) < RESERVOIR:
                    samples.append(elapsed)
                else:
                    j = int(sample_rng.integers(0, seen))
                    if j < RESERVOIR:
                        samples[j] = elapsed
        finally:
            client.close()
        local["seen"] = seen
        lock_free_chunks.append(samples)
        return local

    start = time.monotonic()
    with ThreadPoolExecutor(max_workers=config.workers,
                            thread_name_prefix="repro-replay") as pool:
        for local in pool.map(worker, range(config.workers)):
            for key in counters:
                counters[key] += local[key]
    wall = time.monotonic() - start

    for chunk in lock_free_chunks:
        latencies.extend(chunk)
    sample = np.asarray(latencies, dtype=float)
    if sample.size:
        p50, p99, p999 = (float(p) for p in
                          np.percentile(sample, [50.0, 99.0, 99.9]))
    else:
        p50 = p99 = p999 = 0.0

    return ReplayReport(
        mode="open" if open_loop else "closed",
        n_devices=n_devices,
        requests=config.requests,
        batch=config.batch,
        decisions=counters["decisions"],
        wall_seconds=wall,
        ok=counters["ok"],
        shed=counters["shed"],
        errors=counters["errors"],
        p50_seconds=p50,
        p99_seconds=p99,
        p999_seconds=p999,
        latencies=sample,
    )
