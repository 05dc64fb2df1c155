"""Workload ``net``: the message-passing DTU runtime at N = 10⁴.

One job runs ``run_net_dtu`` over the seed's population with 10% message
loss and jitter 0.2 (fault and churn streams seeded from the same seed)
until the coordinator terminates.  Set-up is sampling the population and
compiling the kernel the correctness check solves γ* with; it is cheap,
so it is repeated and its median reported.
"""

from __future__ import annotations

import gc
import time

from calibrate import HostSpeed
from common import SCENARIO, Tracer, median, patch_all, peak_rss_mb

N_USERS = 10_000
LOSS = 0.1
JITTER = 0.2
SETUP_BLOCK = 7
#: With 10% loss the coordinator measures γ from a random 90% of the
#: fleet, so γ̂ settles within a few DTU tolerances of γ*, not within one.
GAP_BOUND = 0.03


def _setup(seed: int):
    from repro import compile_mean_field, sample_population
    from repro.population.scenarios import build_scenario

    config = build_scenario(SCENARIO)
    cpu_started = time.process_time()
    started = time.perf_counter()
    population = sample_population(config, N_USERS, rng=seed)
    sampled = time.perf_counter()
    kernel = compile_mean_field(population)
    compiled = time.perf_counter()
    return (population, kernel, sampled - started, compiled - sampled,
            time.process_time() - cpu_started)


def _job(population, seed: int) -> dict:
    from repro.net import FaultConfig, NetConfig, run_net_dtu

    config = NetConfig(faults=FaultConfig(loss=LOSS, jitter=JITTER),
                       seed=seed, log_messages=False)
    gc.collect()
    cpu_started = time.process_time()
    started = time.perf_counter()
    result = run_net_dtu(population, config)
    elapsed = time.perf_counter() - started
    return {"wait_s": elapsed, "result": result,
            "cpu_s": time.process_time() - cpu_started,
            "record": {"converged": result.converged,
                       "attempted": result.log.attempted,
                       "rounds": result.rounds,
                       "gamma_hat": result.estimated_utilization}}


def _traced_job(population, seed: int, tracer: Tracer) -> dict:
    from repro.core.kernels import CompiledMeanField
    from repro.net.transport import FaultyTransport

    targets = [
        (FaultyTransport, "send", "transport.send"),
        (CompiledMeanField, "user_threshold", "kernels.user_probe"),
        (CompiledMeanField, "user_alpha", "kernels.user_probe"),
    ]
    with patch_all(tracer, targets):
        return _job(population, seed)


def run(seed: int, seconds: float, trace: bool, expected) -> dict:
    from repro import solve_mfne

    timings = []
    host = HostSpeed()

    def set_up():
        for _ in range(SETUP_BLOCK):
            population, kernel, *seconds_taken = _setup(seed)
            timings.append(seconds_taken)
        host.sample()
        return population, kernel

    population, kernel = set_up()
    tracer = Tracer() if trace else None
    plain_jobs = [_job(population, seed)] if trace else []
    jobs = []
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        jobs.append(_traced_job(population, seed, tracer) if trace
                    else _job(population, seed))
        # Host speed drifts over seconds: sample set-up on both sides of
        # each job instead of in one burst.
        set_up()
    sample_s = median(t[0] for t in timings)
    compile_s = median(t[1] for t in timings)
    setup_s = median(t[2] for t in timings)
    failures = []
    record = jobs[0]["record"]
    gamma_star = solve_mfne(kernel).utilization
    if not record["converged"]:
        failures.append("run_net_dtu did not converge")
    gap = abs(record["gamma_hat"] - gamma_star)
    if gap > GAP_BOUND:
        failures.append(f"|γ̂ − γ*| = {gap:.3g} exceeds {GAP_BOUND}")
    if any(j["record"] != record for j in jobs + plain_jobs):
        failures.append("runs on the same inputs disagree")
    if expected is not None:
        for key, value in expected.items():
            if record[key] != value:
                failures.append(f"{key} = {record[key]!r}, recorded "
                                f"{value!r} for this seed")

    waits = sorted(j["wait_s"] * 1e3 for j in jobs)
    cpu_ms = median(j["cpu_s"] for j in jobs) * 1e3
    lines = [
        f"net N={N_USERS} loss={LOSS} jitter={JITTER}: net_s median "
        f"{median(waits) / 1e3:.4f} s (n={len(jobs)} runs), wall setup "
        f"{sample_s + compile_s:.4f} s",
        "  " + " ".join(f"{k}={v!r}" for k, v in record.items())
        + f" gamma_star={gamma_star!r}",
        f"  raw cpu_ms_per_op median {cpu_ms:.1f} ms (n={len(jobs)} runs)",
        host.line(),
    ]
    result = {
        "attempted": len(jobs), "failed": 0, "failures": failures,
        "lines": lines, "record": record,
        "end_to_end": {
            "setup_s": host.scale(setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "cpu_ms_per_op": host.scale(cpu_ms),
        },
    }
    if trace:
        result["per_layer"] = _per_layer(tracer, jobs, plain_jobs)
        result["per_layer"].update({
            "population.sample_s": sample_s, "kernels.compile_s": compile_s,
            "kernels.table_bytes": float(kernel.stats.bytes)})
    return result


def _per_layer(tracer: Tracer, jobs, plain_jobs) -> dict:
    s = tracer.summary()
    reps = len(jobs)
    send_s = s["total_s"].get("transport.send", 0.0) / reps
    probe_s = s["total_s"].get("kernels.user_probe", 0.0) / reps
    traced_wait = sum(j["wait_s"] for j in jobs) / reps
    plain_wait = median(j["wait_s"] for j in plain_jobs)
    result = jobs[0]["result"]
    return {
        "transport.sends": s["calls"].get("transport.send", 0) / reps,
        "transport.send_s": send_s,
        "transport.delivered_ratio": result.log.delivered_fraction,
        "clock.events": float(result.events_fired),
        "protocol.rounds": float(result.rounds),
        "kernels.user_probe_calls":
            s["calls"].get("kernels.user_probe", 0) / reps,
        "kernels.user_probe_s": probe_s,
        "attribution.other_s": traced_wait - send_s - probe_s,
        "attribution.covered_share": (send_s + probe_s) / traced_wait,
        "tracing.overhead_share": traced_wait / plain_wait - 1.0,
    }
