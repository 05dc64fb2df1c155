"""Sharded multi-edge benchmark: per-site kernel rounds at N = 10⁶.

Three workloads, written to ``BENCH_multiedge.json`` at the repo root:

* ``round`` — one sharded decision round over a balanced partition of
  N users across m tiered sites: the global argmin pricing pass
  (``assign_seconds``), then every site kernel answering its cohort's
  threshold + α probes. Each site's probe is timed individually (inside
  the task, so dispatch overhead is excluded) and dispatched through
  :class:`repro.runtime.TaskRunner`; ``round_serial_seconds`` is the sum
  over sites, ``round_parallel_seconds`` the max — the critical path when
  every site computes concurrently, which is the deployment the sharded
  runtime models. ``site_parallel_decisions_per_second = N / max_j t_j``
  is the headline: with shared-table kernels the per-site cost is
  ``O(|cohort| log m_max)``, so the critical path shrinks like ``1/m``
  and throughput scales near-linearly in the site count. The balanced
  partition is the design point — inter-site migration exists precisely
  to even cohorts out — and probe cost does not depend on *which* users
  a cohort holds, only on how many.
* ``dtu`` — the vector DTU (``run_multiedge_dtu``) end to end, compile
  included: what a cold caller pays for a full distributed solve.
* ``sharded-net`` — the actor-runtime protocol (``run_sharded_dtu``)
  end to end: coordinators, gossip, probes, migration, on a population
  small enough that the pure-python runtime dominates.

The round probes are warmed once per site before timing (the amortised
regime the kernels exist for — the one-off table build is reported
separately as ``compile_seconds``) and take the best of three passes.

Standalone (the ``make bench-multiedge`` target)::

    PYTHONPATH=src python benchmarks/bench_multiedge.py [--quick] \
        [--jobs J] [--output F]

``--quick`` keeps only the smallest point of each workload (CI smoke;
still writes JSON) — those rows exist in the full run too, so the
committed baseline stays comparable. Under ``pytest benchmarks/`` one
quick pass runs through the shared ``once`` fixture and is checked
against the committed ``BENCH_multiedge.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Best-of repetitions for the cheap per-site probes; the full DTU and
#: actor-runtime runs are deterministic but expensive, so they run once.
PROBE_REPETITIONS = 3
#: The γ̂ every probe is evaluated at. Probe cost is a binary search plus
#: table gathers — independent of the value, so any interior point does.
PROBE_GAMMA = 0.3

#: (n_users, n_sites) per workload. Quick rows are a subset of the full
#: rows so ``repro.obs.bench compare`` matches cases across modes.
ROUND_FULL = ((100_000, 10), (1_000_000, 10), (1_000_000, 32),
              (1_000_000, 100))
ROUND_QUICK = ((100_000, 10),)
DTU_POINT = (100_000, 10)
SHARDED_POINT = (1_000, 4)


def _time(func, *args, **kwargs):
    started = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - started, result


def _build_system(n_users: int, n_sites: int, seed: int = 7):
    """A compiled tiered deployment over a fresh paper population."""
    from repro.core.multiedge import MultiEdgeSystem, tiered_sites
    from repro.population.scenarios import build_scenario
    from repro.population.sampler import sample_population

    population = sample_population(
        build_scenario("paper-theoretical"), n_users, rng=seed)
    # The constructor draws the latency matrix and compiles the kernels.
    compile_seconds, system = _time(
        MultiEdgeSystem, population, tiered_sites(n_sites), rng=seed)
    return system, compile_seconds


def _probe_site(kernel, cohort) -> float:
    """Best-of wall time for one site's threshold + α probes."""
    best = float("inf")
    for _ in range(PROBE_REPETITIONS):
        started = time.perf_counter()
        thresholds = kernel.user_thresholds(cohort, PROBE_GAMMA)
        kernel.user_alphas(cohort, thresholds)
        best = min(best, time.perf_counter() - started)
    return best


def _measure_round(n_users: int, n_sites: int, jobs: int = 1,
                   seed: int = 7) -> dict:
    """One sharded decision round over a balanced partition."""
    import numpy as np

    from repro.runtime import TaskRunner, TaskSpec

    system, compile_seconds = _build_system(n_users, n_sites, seed)
    gammas = np.full(n_sites, PROBE_GAMMA)

    # The global pricing pass every device runs per broadcast:
    # argmin_j (g_j(γ̂_j) + τ_{ij}) over the full n × m price matrix.
    assign_seconds, _ = _time(system.best_response, gammas)

    cohorts = np.array_split(np.arange(n_users), n_sites)
    for kernel, cohort in zip(system.kernels, cohorts):
        _probe_site(kernel, cohort)  # touch the tables once before timing
    runner = TaskRunner(jobs=jobs)
    results = runner.run([
        TaskSpec(_probe_site, {"kernel": kernel, "cohort": cohort},
                 name=f"site-{j}")
        for j, (kernel, cohort) in enumerate(zip(system.kernels, cohorts))
    ])
    site_seconds = np.array([r.unwrap() for r in results])

    serial = float(site_seconds.sum())
    parallel = float(site_seconds.max())
    return {
        "workload": "round",
        "n_users": n_users,
        "n_sites": n_sites,
        "compile_seconds": round(compile_seconds, 4),
        "assign_seconds": round(assign_seconds, 4),
        "round_serial_seconds": round(serial, 6),
        "round_parallel_seconds": round(parallel, 6),
        "site_parallel_decisions_per_second": round(n_users / parallel),
        "scaling_efficiency": round(serial / (n_sites * parallel), 4),
        "largest_cohort": max(len(c) for c in cohorts),
    }


def _measure_dtu(n_users: int, n_sites: int, seed: int = 7) -> dict:
    """The vector DTU end to end, compile included."""
    import numpy as np

    from repro.core.multiedge import MultiEdgeSystem, run_multiedge_dtu, \
        tiered_sites
    from repro.population.scenarios import build_scenario
    from repro.population.sampler import sample_population

    population = sample_population(
        build_scenario("paper-theoretical"), n_users, rng=seed)

    def cold_run():
        system = MultiEdgeSystem(population, tiered_sites(n_sites),
                                 rng=seed)
        return system, run_multiedge_dtu(system)  # keep tables alive

    dtu_seconds, (_, result) = _time(cold_run)
    gap = float(np.abs(result.estimated_utilizations
                       - result.actual_utilizations).max())
    return {
        "workload": "dtu",
        "n_users": n_users,
        "n_sites": n_sites,
        "dtu_seconds": round(dtu_seconds, 4),
        "dtu_iterations": result.iterations,
        "converged": result.converged,
        "dtu_gap": round(gap, 4),
    }


def _measure_sharded(n_users: int, n_sites: int, seed: int = 7) -> dict:
    """The actor-runtime sharded protocol end to end."""
    from repro.net import ShardedNetConfig, run_sharded_dtu

    system, _ = _build_system(n_users, n_sites, seed)
    config = ShardedNetConfig(log_messages=False, max_rounds=120)
    net_seconds, result = _time(run_sharded_dtu, system, config)
    return {
        "workload": "sharded-net",
        "n_users": n_users,
        "n_sites": n_sites,
        "net_seconds": round(net_seconds, 4),
        "net_rounds": int(max(result.rounds)),
        "net_events_per_second": round(result.events_fired / net_seconds),
        "migrations": result.migrations,
        "converged": result.converged,
    }


_WORKLOADS = {
    "dtu": _measure_dtu,
    "sharded-net": _measure_sharded,
}


def _measure_isolated(workload: str, n_users: int, n_sites: int,
                      jobs: int) -> dict:
    """Run one point in a fresh interpreter.

    The N = 10⁶, m = 100 systems hold ~1.6 GB of latency matrices and
    kernel tables; measuring several points in one process lets heap
    fragmentation from earlier points inflate later timings. A subprocess
    per point keeps every row a clean-slate measurement.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--point", f"{workload}:{n_users}:{n_sites}", "--jobs", str(jobs)],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout)


def _measure_point(workload: str, n_users: int, n_sites: int,
                   jobs: int) -> dict:
    if workload == "round":
        return _measure_round(n_users, n_sites, jobs=jobs)
    return _WORKLOADS[workload](n_users, n_sites)


def run_benchmark(quick: bool = False, jobs: int = 1,
                  isolate: bool = False) -> dict:
    from repro import __version__

    plan = [("round", n, m) for n, m in
            (ROUND_QUICK if quick else ROUND_FULL)]
    plan.append(("dtu",) + DTU_POINT)
    plan.append(("sharded-net",) + SHARDED_POINT)
    measure = _measure_isolated if isolate else _measure_point
    workloads = [measure(workload, n, m, jobs)
                 for workload, n, m in plan]
    return {
        "benchmark": "repro.multiedge — sharded per-site kernel rounds",
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "protocol": {"scenario": "paper-theoretical",
                     "probe_gamma": PROBE_GAMMA,
                     "probe_repetitions_best_of": PROBE_REPETITIONS,
                     "round_partition": "balanced",
                     "round_timings_use_warm_kernels": True,
                     "dtu_timings_include_build": True,
                     "jobs": jobs,
                     "process_per_point": isolate},
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smallest point per workload only (CI smoke; "
                             "still writes JSON)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="TaskRunner fan-out for the per-site probes "
                             "(default 1: inline)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_multiedge.json")
    parser.add_argument("--point", metavar="WORKLOAD:N:M",
                        help=argparse.SUPPRESS)  # subprocess worker mode
    args = parser.parse_args(argv)
    if args.point is not None:
        workload, n_users, n_sites = args.point.split(":")
        print(json.dumps(_measure_point(
            workload, int(n_users), int(n_sites), args.jobs)))
        return 0
    report = run_benchmark(quick=args.quick, jobs=args.jobs, isolate=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    for row in report["workloads"]:
        if row["workload"] == "round":
            print(f"round   N={row['n_users']:>9,} m={row['n_sites']:>3}  "
                  f"serial {row['round_serial_seconds']:8.4f}s  "
                  f"critical-path {row['round_parallel_seconds']:8.5f}s  "
                  f"{row['site_parallel_decisions_per_second']:>14,}/s  "
                  f"eff {row['scaling_efficiency']:.2f}")
        elif row["workload"] == "dtu":
            print(f"dtu     N={row['n_users']:>9,} m={row['n_sites']:>3}  "
                  f"{row['dtu_seconds']:8.3f}s  "
                  f"{row['dtu_iterations']} iterations  "
                  f"gap {row['dtu_gap']:.3f}")
        else:
            print(f"sharded N={row['n_users']:>9,} m={row['n_sites']:>3}  "
                  f"{row['net_seconds']:8.3f}s  "
                  f"{row['net_rounds']} rounds  "
                  f"{row['migrations']} migrations")
    print(f"\nwrote {args.output}")
    return 0


def test_multiedge_benchmark(once, regression_check):
    """One quick measured pass under ``pytest benchmarks/``."""
    report = once(run_benchmark, quick=True)
    regression_check(report, "BENCH_multiedge.json")
    rows = {row["workload"]: row for row in report["workloads"]}
    round_row = rows["round"]
    # The critical path can never exceed the serial sum, and the balance
    # ratio is a proper efficiency.
    assert round_row["round_parallel_seconds"] <= \
        round_row["round_serial_seconds"]
    assert 0.0 < round_row["scaling_efficiency"] <= 1.0
    assert rows["dtu"]["converged"]
    assert rows["sharded-net"]["converged"]
    assert rows["sharded-net"]["migrations"] > 0


if __name__ == "__main__":
    sys.exit(main())
