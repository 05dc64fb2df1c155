"""repro.runtime benchmark — the first point of the perf trajectory.

Times the two canonical fan-out workloads at ``jobs=1`` vs ``jobs=4``,
cold and warm cache, and writes ``BENCH_runtime.json`` at the repo root:

* a 16-point capacity sweep (one MFNE + DTU solve per point);
* a 16-replication DES batch (independent system simulations).

At ``jobs=4`` every task runs in a forked worker that inherits its
inputs, so no population or kernel is copied to a worker.

Standalone (the ``make bench-runtime`` target)::

    PYTHONPATH=src python benchmarks/bench_runtime.py [--quick] [--output F]

Under ``pytest benchmarks/`` the same measurement runs once at reduced
scale through the shared ``once`` fixture so the suite stays green on slow
machines; the JSON artifact is only written by the standalone entry point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

JOBS_PARALLEL = 4

SWEEP_VALUES = [8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22, 24, 26]


def _sweep_workload(n_users: int):
    """A 16-point capacity sweep as a (callable, label) pair."""
    from repro.sweep import run_sweep

    def run(jobs: int, cache):
        return run_sweep("capacity", SWEEP_VALUES, n_users=n_users, seed=0,
                         include_dtu=True, jobs=jobs, cache=cache)

    return run, f"sweep[capacity x {len(SWEEP_VALUES)}, n_users={n_users}]"


def _des_workload(n_users: int, horizon: float):
    """A 16-replication DES batch as a (callable, label) pair."""
    from repro.population.scenarios import build_scenario
    from repro.population.sampler import sample_population
    from repro.simulation.measurement import MeasurementConfig
    from repro.simulation.system import (
        simulate_system_replicated,
        tro_policies,
    )

    population = sample_population(
        build_scenario("paper-theoretical"), n_users, rng=7,
    )
    policies = tro_policies(2.0, population.size)
    config = MeasurementConfig(horizon=horizon, warmup=horizon / 5, seed=3)

    def run(jobs: int, cache):
        return simulate_system_replicated(
            population, policies, replications=16, config=config,
            jobs=jobs, cache=cache,
        )

    return run, f"des[16 replications, n_users={n_users}, horizon={horizon:g}]"


def _time(fn, *args) -> tuple:
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


def measure_workload(run, label: str) -> dict:
    """Serial vs parallel cold runs, then a warm-cache re-run."""
    with tempfile.TemporaryDirectory(prefix="bench-runtime-") as cache_dir:
        serial_seconds, serial_result = _time(run, 1, None)
        parallel_seconds, parallel_result = _time(run, JOBS_PARALLEL, cache_dir)
        warm_seconds, warm_result = _time(run, JOBS_PARALLEL, cache_dir)
    if str(serial_result) != str(parallel_result) or \
            str(parallel_result) != str(warm_result):
        raise AssertionError(f"{label}: results differ across jobs/cache runs")
    entry = {
        "workload": label,
        "jobs_parallel": JOBS_PARALLEL,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_cold_seconds": round(parallel_seconds, 4),
        "parallel_warm_seconds": round(warm_seconds, 4),
        "parallel_speedup": round(serial_seconds / parallel_seconds, 3),
        "warm_cache_speedup": round(serial_seconds / warm_seconds, 3),
        "identical_output": True,
    }
    if entry["parallel_speedup"] < 1.0:
        cpus = os.cpu_count() or 1
        if cpus < JOBS_PARALLEL:
            # Not a regression: jobs=4 on a host with fewer cores pays the
            # process pool's overhead with no parallelism to buy it back.
            entry["note"] = (
                f"parallel_speedup < 1 because this host has {cpus} CPU(s); "
                f"jobs={JOBS_PARALLEL} adds process overhead without "
                f"parallel capacity")
        else:
            entry["note"] = (
                f"parallel_speedup < 1 on a {cpus}-CPU host: the tasks are "
                f"too short to repay a forked worker each")
    return entry


def run_benchmark(quick: bool = False) -> dict:
    workloads = [
        _sweep_workload(n_users=300 if quick else 1200),
        _des_workload(n_users=10 if quick else 40,
                      horizon=60.0 if quick else 200.0),
    ]
    from repro import __version__

    report = {
        "benchmark": "repro.runtime TaskRunner + ResultCache",
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "workloads": [measure_workload(run, label)
                      for run, label in workloads],
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced scale (CI smoke; still writes JSON)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_runtime.json")
    args = parser.parse_args(argv)
    report = run_benchmark(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"host: {report['cpu_count']} CPU(s), "
          f"jobs_parallel={JOBS_PARALLEL} — speedups below are "
          f"meaningless when CPUs < jobs\n")
    for entry in report["workloads"]:
        print(f"{entry['workload']}\n"
              f"  serial        {entry['serial_seconds']:8.2f}s\n"
              f"  parallel cold {entry['parallel_cold_seconds']:8.2f}s "
              f"({entry['parallel_speedup']:.2f}x)\n"
              f"  parallel warm {entry['parallel_warm_seconds']:8.2f}s "
              f"({entry['warm_cache_speedup']:.2f}x)")
        if "note" in entry:
            print(f"  note: {entry['note']}")
    print(f"\nwrote {args.output}")
    return 0


def test_runtime_benchmark(once, regression_check):
    """One quick measured pass under ``pytest benchmarks/``."""
    report = once(run_benchmark, quick=True)
    regression_check(report, "BENCH_runtime.json")
    for entry in report["workloads"]:
        assert entry["identical_output"]
        # The warm re-run reads pickles instead of solving; even on a
        # single-core machine it must beat the cold serial run.
        assert entry["parallel_warm_seconds"] < entry["serial_seconds"]


if __name__ == "__main__":
    sys.exit(main())
