"""repro.runtime benchmark — the first point of the perf trajectory.

Times the three canonical fan-out workloads at ``jobs=1`` vs ``jobs=4``,
cold and warm cache, and writes ``BENCH_runtime.json`` at the repo root:

* a 16-point capacity sweep (one MFNE + DTU solve per point);
* the same sweep through one shared-memory donor kernel
  (``shared_kernel=True`` — every point pickles the kernel by handle);
* a 16-replication DES batch (independent system simulations, with the
  population shared via ``share_population=True``).

Each entry records the per-task pickle payload a process worker receives
(``task_pickle_bytes_copied`` vs ``task_pickle_bytes_shared``) — the
before/after of the zero-copy sharing levers, auditable through the
``repro.obs.bench`` normalizer (``*_bytes`` regresses upward).

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


def _spec_bytes(fn, **kwargs) -> int:
    """Pickled size of one task spec — the payload a process worker gets."""
    import pickle

    from repro.runtime.task import TaskSpec

    return len(pickle.dumps(TaskSpec(fn=fn, kwargs=kwargs),
                            protocol=pickle.HIGHEST_PROTOCOL))


def _sweep_workload(n_users: int):
    """A 16-point capacity sweep as a (callable, label, extras) triple."""
    from repro.sweep import _sweep_point, run_sweep

    def run(jobs: int, cache):
        return run_sweep("capacity", SWEEP_VALUES, n_users=n_users, seed=0,
                         include_dtu=True, jobs=jobs, cache=cache)

    extras = {
        # The resampling sweep ships only scalars; each worker re-samples
        # and re-compiles its own point.
        "task_pickle_bytes_copied": _spec_bytes(
            _sweep_point, parameter="capacity", value=10.0,
            n_users=n_users, include_dtu=True, backend=None,
            sim_horizon=150.0),
    }
    return (run, f"sweep[capacity x {len(SWEEP_VALUES)}, n_users={n_users}]",
            extras)


def _shared_sweep_workload(n_users: int):
    """The same capacity sweep through one shared-memory donor kernel."""
    from repro.core.meanfield import MeanFieldMap
    from repro.population.scenarios import build_scenario
    from repro.population.sampler import sample_population
    from repro.sweep import _sweep_point_shared, run_sweep

    # Weigh what one point-task would ship with the donor pickled by
    # value vs by handle (the run itself builds its own donor inside
    # run_sweep; this kernel exists only on the scale).
    population = sample_population(
        build_scenario("paper-theoretical"), n_users, rng=0,
    )
    donor = MeanFieldMap(population).compile()
    copied = _spec_bytes(_sweep_point_shared, parameter="capacity",
                         value=10.0, kernel=donor, include_dtu=True)
    donor.share_memory()
    shared = _spec_bytes(_sweep_point_shared, parameter="capacity",
                         value=10.0, kernel=donor, include_dtu=True)
    del donor, population

    def run(jobs: int, cache):
        return run_sweep("capacity", SWEEP_VALUES, n_users=n_users, seed=0,
                         include_dtu=True, jobs=jobs, cache=cache,
                         shared_kernel=True)

    extras = {
        "task_pickle_bytes_copied": copied,
        "task_pickle_bytes_shared": shared,
    }
    return (run,
            f"sweep-shared[capacity x {len(SWEEP_VALUES)}, "
            f"n_users={n_users}]",
            extras)


def _des_workload(n_users: int, horizon: float):
    """A 16-replication DES batch as a (callable, label, extras) triple."""
    from repro.population.scenarios import build_scenario
    from repro.population.sampler import sample_population
    from repro.simulation.measurement import MeasurementConfig
    from repro.simulation.system import (
        _replication_point,
        simulate_system_replicated,
        tro_policies,
    )

    population = sample_population(
        build_scenario("paper-theoretical"), n_users, rng=7,
    )
    policies = tro_policies(2.0, population.size)
    config = MeasurementConfig(horizon=horizon, warmup=horizon / 5, seed=3)
    point_kwargs = dict(population=population, policies=list(policies),
                        horizon=config.horizon, warmup=config.warmup,
                        service_model=None, delay_model=None,
                        backend="event")
    copied = _spec_bytes(_replication_point, **point_kwargs)
    population.share_memory()      # in place; the runs below ship handles
    shared = _spec_bytes(_replication_point, **point_kwargs)

    def run(jobs: int, cache):
        return simulate_system_replicated(
            population, policies, replications=16, config=config,
            jobs=jobs, cache=cache, share_population=True,
        )

    extras = {
        "task_pickle_bytes_copied": copied,
        "task_pickle_bytes_shared": shared,
    }
    return (run,
            f"des[16 replications, n_users={n_users}, horizon={horizon:g}]",
            extras)


def _time(fn, *args) -> tuple:
    started = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - started, result


def measure_workload(run, label: str, extras: dict = None) -> dict:
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
    entry.update(extras or {})
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
                f"parallel_speedup < 1 on a {cpus}-CPU host: check the "
                f"task_pickle_bytes_* payloads above")
    return entry


def run_benchmark(quick: bool = False) -> dict:
    workloads = [
        _sweep_workload(n_users=300 if quick else 1200),
        _shared_sweep_workload(n_users=300 if quick else 1200),
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
        "workloads": [measure_workload(run, label, extras)
                      for run, label, extras in workloads],
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
        if "task_pickle_bytes_copied" in entry:
            line = f"  task pickle   {entry['task_pickle_bytes_copied']:,} B"
            if "task_pickle_bytes_shared" in entry:
                line += f" → {entry['task_pickle_bytes_shared']:,} B shared"
            print(line)
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
