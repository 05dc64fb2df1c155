"""Workloads ``serve-batch`` and ``serve-single``: the decision daemon.

Every session boots a fresh daemon process (``daemon.py``) over the
seed's N = 10⁵ population, decides every device once and waits until
``/state`` reports ``members == N``; that is set-up.  Then it drives the
daemon for its share of the run from this process, over two keep-alive
connections:

* ``serve-batch`` — closed loop, each request ``/decide`` of B = 1000
  random devices;
* ``serve-single`` — open loop, Poisson arrivals at 300 requests/s of
  B = 1 random device, each timed from its due time.

Outside the timed window a sample of the responses is checked against
this process's own kernel for the same population, at the γ each
response reports.
"""

from __future__ import annotations

import json
import selectors
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import loadgen
from calibrate import HostSpeed
from common import SCENARIO, child_env, median, quantile

N_USERS = 100_000
CONNECTIONS = 2
SESSIONS = 2
WARMUP_BATCH = 1000
BOOT_TIMEOUT = 60.0

WORKLOADS = {
    # batch size, open-loop rate (None: closed loop), keep every k-th body
    "serve-batch": {"batch": 1000, "rate": None, "keep_every": 10},
    "serve-single": {"batch": 1, "rate": 150.0, "keep_every": 10},
}

DAEMON = Path(__file__).resolve().parent / "daemon.py"


class Daemon:
    """One daemon process, owned by a ``with`` block."""

    def __init__(self, seed: int, trace: bool):
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(DAEMON), "--users", str(N_USERS),
             "--seed", str(seed), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=str(DAEMON.parent.parent))
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.process.stdout, selectors.EVENT_READ)
        self.boot = json.loads(self._read_line(BOOT_TIMEOUT))
        self.port = self.boot["port"]

    def _read_line(self, timeout: float) -> str:
        if not self._selector.select(timeout):
            raise RuntimeError("daemon did not answer in time")
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"daemon exited ({self.process.poll()})")
        return line

    def command(self, word: str, timeout: float = 30.0) -> str:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        return self._read_line(timeout).strip()

    def stop(self) -> dict:
        return json.loads(self.command("stop"))

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=15)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._selector.close()


def _until(predicate, timeout: float, what: str) -> None:
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            raise RuntimeError(f"timed out waiting for {what}")
        time.sleep(0.02)


def _warm_up(daemon: Daemon, rng: np.random.Generator) -> None:
    """Healthy, every device decided once, all of them joined."""
    probe = loadgen.Connection("127.0.0.1", daemon.port)

    def healthy():
        try:
            return probe.request("GET", "/healthz")[0] == 200
        except loadgen.TRANSPORT_ERRORS:
            return False

    _until(healthy, BOOT_TIMEOUT, "/healthz")
    order = rng.permutation(N_USERS)
    bodies = [json.dumps({"devices": chunk.tolist()}).encode()
              for chunk in np.split(order, N_USERS // WARMUP_BATCH)]
    conns = [loadgen.Connection("127.0.0.1", daemon.port)
             for _ in range(CONNECTIONS)]
    samples = loadgen.closed_loop(
        lambda k, i: conns[k].request("POST", "/decide", bodies[i]),
        len(bodies), CONNECTIONS, duration=BOOT_TIMEOUT)
    for conn in conns:
        conn.close()
    if len(samples) != len(bodies) or any(s.status != 200 for s in samples):
        raise RuntimeError("warm-up decisions failed")
    _until(lambda: probe.get_json("/state")[1]["members"] == N_USERS,
           BOOT_TIMEOUT, "members == N")
    probe.close()


def _session(name: str, seed: int, session: int, seconds: float,
             trace: bool, host: HostSpeed) -> dict:
    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed, session])
    # The host reference is timed while no daemon runs: a busy daemon on
    # the other CPU would slow it and not the host.
    host.sample()
    with Daemon(seed, trace) as daemon:
        _warm_up(daemon, rng)
        setup_s = time.perf_counter() - daemon.started
        setup_cpu_s = json.loads(daemon.command("reset"))["cpu_s"]
        conns = [loadgen.Connection("127.0.0.1", daemon.port)
                 for _ in range(CONNECTIONS)]
        if spec["rate"] is None:
            # More bodies than two connections can send in the window.
            bodies = loadgen.decide_bodies(rng, N_USERS, spec["batch"],
                                           int(seconds * 200) + 64)
            started = time.perf_counter()
            samples = loadgen.closed_loop(
                lambda k, i: conns[k].request("POST", "/decide", bodies[i]),
                len(bodies), CONNECTIONS, seconds, spec["keep_every"])
        else:
            schedule = loadgen.poisson_schedule(rng, spec["rate"], seconds)
            bodies = loadgen.decide_bodies(rng, N_USERS, 1, len(schedule))
            started = time.perf_counter()
            samples = loadgen.open_loop(
                lambda k, i: conns[k].request("POST", "/decide", bodies[i]),
                schedule, CONNECTIONS, spec["keep_every"])
        elapsed = time.perf_counter() - started
        for conn in conns:
            conn.close()
        stats = daemon.stop()
    host.sample()
    return {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s,
            "boot": daemon.boot, "samples": samples,
            "bodies": bodies, "elapsed": elapsed, "stats": stats}


def _check(sessions, seed: int) -> list:
    """Sampled responses against this process's kernel; daemon health."""
    from repro.core.edge_delay import PAPER_DELAY_MODEL
    from repro.core.kernels import compile_mean_field
    from repro.population import sample_population
    from repro.population.scenarios import build_scenario

    population = sample_population(build_scenario(SCENARIO), N_USERS,
                                   rng=seed)
    kernel = compile_mean_field(population, PAPER_DELAY_MODEL)
    failures, checked = [], 0
    for session in sessions:
        if not session["stats"]["healthy"]:
            failures.append("daemon coordinator failed")
        for sample in session["samples"]:
            if sample.body is None or sample.status != 200:
                continue
            payload = json.loads(sample.body)
            request = json.loads(session["bodies"][sample.index])
            asked = request.get("devices", [request.get("device")])
            decisions = payload["decisions"]
            ids = np.array([d["device"] for d in decisions], dtype=np.int64)
            levels = kernel.user_thresholds(ids, payload["gamma"])
            alphas = kernel.user_alphas(ids, levels)
            ok = (ids.tolist() == asked
                  and [d["threshold"] for d in decisions] == levels.tolist()
                  and [d["offload_probability"] for d in decisions]
                  == alphas.tolist()
                  and [d["offload_rate"] for d in decisions]
                  == (population.arrival_rates[ids] * alphas).tolist())
            if not ok:
                failures.append(f"response to request {sample.index} "
                                "disagrees with the kernel")
                break
            checked += 1
    if checked == 0:
        failures.append("no response was checked")
    return failures


def run(name: str, seed: int, seconds: float, trace: bool, expected) -> dict:
    share = seconds / SESSIONS
    host = HostSpeed()
    if trace:
        # The first session runs untraced: the overhead baseline.
        sessions = [_session(name, seed, 0, share, False, host)]
        sessions += [_session(name, seed, k, share, True, host)
                     for k in range(1, SESSIONS + 1)]
        plain, measured = sessions[:1], sessions[1:]
    else:
        sessions = measured = [_session(name, seed, k, share, False, host)
                               for k in range(SESSIONS)]
        plain = []
    failures = _check(sessions, seed)
    samples = [s for session in measured for s in session["samples"]]
    transport_errors = sum(s.status == 0 for s in samples)
    failed = sum(s.status != 200 for s in samples)
    if transport_errors:
        failures.append(f"{transport_errors} transport errors")
    ok = [s for s in samples if s.status == 200]
    latencies = [s.latency * 1e3 for s in ok]
    lags = [s.lag * 1e3 for s in samples]
    wall = sum(session["elapsed"] for session in measured)
    batch = WORKLOADS[name]["batch"]
    p50, tail = median(latencies), quantile(latencies, 0.99)
    cpu_ms = sum(s["stats"]["window_cpu_s"] for s in measured) \
        / max(len(samples), 1) * 1e3
    lines = [
        f"{name} N={N_USERS} B={batch} sessions={len(measured)} "
        f"window={wall:.2f} s: requests={len(samples)} ok={len(ok)}",
        f"  decide_p50_ms {p50:.3f} ms, decide_p99_ms {tail:.3f} ms "
        f"(n={len(latencies)})",
        f"  decisions_per_s {len(ok) * batch / wall:.1f} 1/s, fail_ratio "
        f"{failed / max(len(samples), 1):.4g} (n={len(samples)})",
        f"  wall setup median "
        f"{median(s['setup_s'] for s in measured):.3f} s",
        f"  raw cpu_ms_per_op {cpu_ms:.3f} ms (n={len(samples)} requests)",
        host.line(),
    ]
    if WORKLOADS[name]["rate"] is not None:
        lines.append(f"  generator lag p50 {median(lags):.3f} ms, p99 "
                     f"{quantile(lags, 0.99):.3f} ms, max {max(lags):.3f} ms")
    result = {
        "attempted": len(samples), "failed": failed, "failures": failures,
        "lines": lines, "record": None,
        "end_to_end": {
            "setup_s": host.scale(median(s["setup_cpu_s"] for s in measured)),
            "peak_rss_mb": max(s["stats"]["peak_rss_mb"] for s in measured),
            "cpu_ms_per_op": host.scale(cpu_ms),
        },
    }
    if trace:
        result["per_layer"] = _per_layer(measured, plain, latencies)
    return result


def _per_layer(measured, plain, latencies) -> dict:
    def pooled(name):
        return [x for s in measured
                for x in s["stats"]["trace"]["samples"].get(name, [])]

    def total(name):
        return sum(s["stats"]["trace"]["total_s"].get(name, 0.0)
                   for s in measured)

    def calls(name):
        return sum(s["stats"]["trace"]["calls"].get(name, 0)
                   for s in measured)

    window = sum(s["stats"]["window_s"] for s in measured)
    admitted = sum(s["stats"]["admitted"] for s in measured)
    shed = sum(s["stats"]["shed"] for s in measured)
    decide_calls = calls("service.decide")
    named = total("service.decide") + total("httpd.encode")
    latency_s = sum(latencies) / 1e3
    plain_latency = median(s.latency * 1e3 for p in plain
                           for s in p["samples"] if s.status == 200)

    def mean_ms(name):
        return total(name) / max(calls(name), 1) * 1e3

    return {
        "population.sample_s": median(s["boot"]["sample_s"] for s in measured),
        "kernels.compile_s": median(s["boot"]["compile_s"] for s in measured),
        "kernels.table_bytes": float(measured[0]["boot"]["table_bytes"]),
        "wallclock.ingest_ms": median(pooled("wallclock.ingest")) * 1e3
        if pooled("wallclock.ingest") else 0.0,
        "wallclock.ingest_busy_share": total("wallclock.ingest") / window,
        "wallclock.wait_ms": quantile(pooled("wallclock.wait"), 0.99) * 1e3
        if pooled("wallclock.wait") else 0.0,
        "service.decide_calls": float(decide_calls),
        "service.decide_ms": mean_ms("service.decide"),
        "kernels.probe_ms": total("kernels.probe") / max(decide_calls, 1)
        * 1e3,
        "httpd.encode_ms": mean_ms("httpd.encode"),
        "admission.admitted_ratio": admitted / max(admitted + shed, 1),
        "attribution.other_s": latency_s - named,
        "attribution.covered_share": named / latency_s,
        "tracing.overhead_share": median(latencies) / plain_latency - 1.0,
    }
