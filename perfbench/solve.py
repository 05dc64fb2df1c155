"""Workload ``solve``: offline MFNE solve and Algorithm 1 at N = 10⁶.

One job samples the seed's population, compiles a fresh lazy kernel
(set-up), then runs ``solve_mfne`` to tolerance 1e-10 and ``run_dtu``
with its default stop rule (the caller's wait).  Jobs repeat until the
run's time is spent; every job sees the same inputs, so every job must
reproduce the same γ*, the same iteration counts and the same final γ̂.
"""

from __future__ import annotations

import gc
import time

from calibrate import HostSpeed
from common import SCENARIO, Tracer, median, patch_all, peak_rss_mb

N_USERS = 1_000_000
TOLERANCE = 1e-10


def _bisection_steps(tolerance: float) -> int:
    """Steps bisection on [0, 1] needs to shrink its bracket to ``tolerance``."""
    steps, width = 0, 1.0
    while width > tolerance:
        width *= 0.5
        steps += 1
    return steps


def _job(seed: int):
    from repro import compile_mean_field, run_dtu, sample_population, \
        solve_mfne
    from repro.population.scenarios import build_scenario

    gc.collect()
    config = build_scenario(SCENARIO)
    cpu_started = time.process_time()
    started = time.perf_counter()
    population = sample_population(config, N_USERS, rng=seed)
    sampled = time.perf_counter()
    kernel = compile_mean_field(population)
    compiled = time.perf_counter()
    cpu_compiled = time.process_time()
    mfne = solve_mfne(kernel, tolerance=TOLERANCE)
    solved = time.perf_counter()
    dtu = run_dtu(kernel)
    finished = time.perf_counter()
    cpu_finished = time.process_time()
    return {
        "setup_cpu_s": cpu_compiled - cpu_started,
        "job_cpu_s": cpu_finished - cpu_compiled,
        "population": population, "kernel": kernel, "mfne": mfne, "dtu": dtu,
        "sample_s": sampled - started, "compile_s": compiled - sampled,
        "setup_s": compiled - started, "mfne_s": solved - compiled,
        "dtu_s": finished - solved, "wait_s": finished - compiled,
    }


def _traced_job(seed: int, tracer: Tracer):
    """The same job with every named layer call wrapped."""
    import repro
    from repro.core import dtu as dtu_module
    from repro.core.kernels import CompiledMeanField

    originals = {name: getattr(repro, name) for name in
                 ("sample_population", "compile_mean_field", "solve_mfne",
                  "run_dtu")}
    layer = {"sample_population": "population.sample",
             "compile_mean_field": "kernels.compile",
             "solve_mfne": "equilibrium", "run_dtu": "dtu"}
    targets = [(repro, name, layer[name]) for name in originals]
    targets += [
        (CompiledMeanField, "value", "kernels.value"),
        (CompiledMeanField, "best_response", "kernels.best_response"),
        (CompiledMeanField, "utilization", "kernels.utilization"),
        (dtu_module.DtuStepper, "update", "dtu.stepper_update"),
    ]
    with patch_all(tracer, targets):
        return _job(seed)


def _check_job(job, expected) -> list:
    """Correctness of one job; returns failure messages (empty: correct)."""
    from repro import MeanFieldMap
    from repro.core.dtu import DtuConfig

    failures = []
    mfne, dtu, population = job["mfne"], job["dtu"], job["population"]
    steps = _bisection_steps(TOLERANCE)
    if not mfne.converged or mfne.iterations != steps:
        failures.append(f"solve_mfne took {mfne.iterations} steps "
                        f"(converged={mfne.converged}), expected {steps}")
    # V is a step function: one user changing threshold moves it by at
    # most a_n / (N c), so that plus the bracket width bounds the residual.
    jump = float(population.arrival_rates.max()) / (
        population.size * population.capacity)
    if mfne.residual > jump + TOLERANCE:
        failures.append(f"MFNE residual {mfne.residual:.3g} exceeds one "
                        f"user's jump {jump:.3g}")
    # Certificate from the uncompiled map: V crosses the diagonal inside
    # [γ* − tol, γ* + tol].
    plain = MeanFieldMap(population)
    low, high = mfne.utilization - TOLERANCE, mfne.utilization + TOLERANCE
    if not (plain.value(low) > low and plain.value(high) <= high):
        failures.append("uncompiled V does not cross the diagonal at γ*")
    if not dtu.converged:
        failures.append("run_dtu did not converge")
    gap = abs(dtu.estimated_utilization - mfne.utilization)
    if gap > DtuConfig().tolerance:
        failures.append(f"|γ̂ − γ*| = {gap:.3g} exceeds the DTU tolerance")
    if expected is not None:
        observed = _record(job)
        for key, value in expected.items():
            if observed[key] != value:
                failures.append(f"{key} = {observed[key]!r}, recorded "
                                f"{value!r} for this seed")
    return failures


def _record(job) -> dict:
    """The exact outputs a job on the same seed must reproduce."""
    return {"gamma_star": job["mfne"].utilization,
            "mfne_iterations": job["mfne"].iterations,
            "dtu_iterations": job["dtu"].iterations,
            "gamma_hat": job["dtu"].estimated_utilization}


def _strip(job) -> dict:
    """Keep a job's timings and results, drop the O(N) objects it built."""
    kept = {k: v for k, v in job.items() if k not in ("kernel", "population")}
    kept["table_bytes"] = job["kernel"].stats.bytes
    kept["record"] = _record(job)
    return kept


def run(seed: int, seconds: float, trace: bool, expected) -> dict:
    host = HostSpeed()
    tracer = Tracer() if trace else None
    plain_jobs = [_strip(_job(seed))] if trace else []  # overhead baseline
    jobs, failures = [], []
    deadline = time.perf_counter() + seconds
    while True:
        host.sample()
        job = _traced_job(seed, tracer) if trace else _job(seed)
        if not jobs:
            checking = time.perf_counter()
            failures += _check_job(job, expected)
            deadline += time.perf_counter() - checking
        jobs.append(_strip(job))
        del job
        if time.perf_counter() >= deadline and len(jobs) >= 2:
            break
    host.sample()
    record = jobs[0]["record"]
    if any(j["record"] != record for j in jobs + plain_jobs):
        failures.append("jobs on the same inputs disagree")

    waits = sorted(j["wait_s"] * 1e3 for j in jobs)
    cpu_ms = median(j["job_cpu_s"] for j in jobs) * 1e3
    lines = [
        f"solve N={N_USERS}: mfne_s median "
        f"{median(j['mfne_s'] for j in jobs):.4f} s, dtu_s median "
        f"{median(j['dtu_s'] for j in jobs):.4f} s (n={len(jobs)} jobs)",
        f"  wall setup {median(j['setup_s'] for j in jobs):.4f} s, "
        f"wait p50 {median(waits):.1f} ms, max {waits[-1]:.1f} ms",
        "  " + " ".join(f"{k}={v!r}" for k, v in record.items()),
        f"  raw cpu_ms_per_op median {cpu_ms:.1f} ms (n={len(jobs)} jobs)",
        host.line(),
    ]
    result = {
        "attempted": len(jobs), "failed": 0, "failures": failures,
        "lines": lines, "record": record,
        "end_to_end": {
            "setup_s": host.scale(median(j["setup_cpu_s"] for j in jobs)),
            "peak_rss_mb": peak_rss_mb(),
            "cpu_ms_per_op": host.scale(cpu_ms),
        },
    }
    if trace:
        result["per_layer"] = _per_layer(tracer, jobs, plain_jobs)
    return result


def _per_layer(tracer: Tracer, jobs, plain_jobs) -> dict:
    s = tracer.summary()
    reps = len(jobs)

    def per(name, kind="total_s"):
        return s[kind].get(name, 0.0) / reps

    def calls(name):
        return s["calls"].get(name, 0) / reps

    named = (per("kernels.value") + per("equilibrium", "self_s")
             + per("kernels.best_response") + per("kernels.utilization")
             + per("dtu.stepper_update"))
    traced_wait = sum(j["wait_s"] for j in jobs) / reps
    plain_wait = median(j["wait_s"] for j in plain_jobs)
    return {
        "population.sample_s": per("population.sample"),
        "kernels.compile_s": per("kernels.compile"),
        "kernels.table_bytes": float(jobs[0]["table_bytes"]),
        "kernels.value_calls": calls("kernels.value"),
        "kernels.value_s": per("kernels.value"),
        "equilibrium.iterations": float(jobs[0]["mfne"].iterations),
        "equilibrium.self_s": per("equilibrium", "self_s"),
        "kernels.best_response_calls": calls("kernels.best_response"),
        "kernels.best_response_s": per("kernels.best_response"),
        "kernels.utilization_s": per("kernels.utilization"),
        "dtu.iterations": float(jobs[0]["dtu"].iterations),
        "dtu.stepper_update_s": per("dtu.stepper_update"),
        "attribution.other_s": traced_wait - named,
        "attribution.covered_share": named / traced_wait,
        "tracing.overhead_share": traced_wait / plain_wait - 1.0,
    }

