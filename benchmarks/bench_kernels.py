"""Compiled best-response kernel vs the uncompiled staircase sweep.

Times the three workloads the kernel accelerates — repeated ``V(γ)``
evaluation, the MFNE bisection, and a full DTU run — through both paths
at N ∈ {10³, 10⁴, 10⁵, 10⁶} users and writes ``BENCH_kernels.json`` at
the repo root. The repeated-``V(γ)`` timing runs on a prebuilt kernel —
that is the amortised regime the kernel exists for — with the one-off
staircase/table build reported separately as ``build_seconds``. The
``solve_mfne`` and ``run_dtu`` timings stay *end-to-end* (the compiled
path rebuilds inside), so those speedups are what a cold caller actually
experiences. Results are asserted bit-identical between the paths before
any timing is reported.

The acceptance bar is a ≥ 10× speedup on repeated ``V(γ)`` at N = 10⁵;
in practice the gap comes from replacing ``O(N·m_max)`` boolean-mask
sweeps per evaluation with one ``O(N log m_max)`` batched binary search
plus table gathers.

Each row also times the kernel levers in isolation: the lazy
constructor vs a fully materialized build (``lazy_build_speedup`` — the
deferred probe layout + on-demand α/Q fill) and bracketed vs probe-less
probes over a prebuilt kernel's full bisection trajectory
(``warm_probe_speedup``; the ``warm`` metric ids predate bracketing and
are kept so rows stay comparable). The uncompiled and probe-less sides are
reached through bench-local subclasses, since the solvers compile only
exact ``MeanFieldMap``\ s and bracket only maps that offer
``probe_state``. The full run appends one compiled-only frontier row at
N = 10⁷ (``--no-large`` skips it) — the uncompiled sweep is infeasible
there, which is the point.

Standalone (the ``make bench-kernels`` target)::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick] [--output F]

``--quick`` caps the populations at 10⁴ (CI smoke; still writes JSON).
Under ``pytest benchmarks/`` one reduced-scale measurement runs through
the shared ``once`` fixture; the JSON artifact is only written by the
standalone entry point.
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

#: γ grid for the repeated-evaluation workload — the scale of one
#: bisection solve's evaluation budget.
N_EVALUATIONS = 20
#: Best-of repetitions: the γ-grid loops are cheap, the full solver/DTU
#: runs are not, so they get different repetition budgets.
VALUE_REPETITIONS = 3
RUN_REPETITIONS = 2
FULL_SIZES = (1_000, 10_000, 100_000, 1_000_000)
QUICK_SIZES = (1_000, 10_000)
#: The compiled-only frontier point: the uncompiled staircase sweep is
#: infeasible here, so this row times the compiled path alone.
LARGE_SIZE = 10_000_000


def _time(func, *args, **kwargs):
    started = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - started, result


def _best_of(repetitions, func, *args, **kwargs):
    """Minimum wall time over ``repetitions`` runs (and the last result).

    The minimum is the standard low-noise estimator for a deterministic
    workload — every source of interference is strictly additive.
    """
    best = float("inf")
    for _ in range(repetitions):
        elapsed, result = _time(func, *args, **kwargs)
        best = min(best, elapsed)
    return best, result


def _uncompiled(population):
    """The reference map: the solvers compile only exact MeanFieldMaps."""
    from repro.core.meanfield import MeanFieldMap

    class ReferenceMap(MeanFieldMap):
        pass

    return ReferenceMap(population)


def _cold_twin(kernel):
    """A table-sharing twin of ``kernel`` that the solvers probe cold:
    they bracket only maps that offer a probe state."""
    from repro.core.kernels import CompiledMeanField

    class ColdProbeKernel(CompiledMeanField):
        def probe_state(self):
            return None

    return ColdProbeKernel.with_shared_tables(
        kernel, kernel.population, kernel.delay_model)


def _measure_point(n_users: int, seed: int = 7) -> dict:
    """Time uncompiled vs compiled on one freshly sampled population."""
    from repro.core.dtu import DtuConfig, run_dtu
    from repro.core.equilibrium import solve_mfne
    from repro.core.meanfield import MeanFieldMap
    from repro.population.scenarios import build_scenario
    from repro.population.sampler import sample_population

    population = sample_population(
        build_scenario("paper-theoretical"), n_users, rng=seed,
    )
    mean_field = MeanFieldMap(population)
    plain_map = _uncompiled(population)
    gammas = [i / (N_EVALUATIONS - 1) for i in range(N_EVALUATIONS)]

    # -- repeated V(γ): the MFNE/DTU/sweep inner loop -----------------
    plain_seconds, plain_values = _best_of(
        VALUE_REPETITIONS, lambda: [mean_field.value(g) for g in gammas])
    kernel = mean_field.compile()
    kernel.value(gammas[0])  # touch the tables once before timing
    compiled_seconds, kernel_values = _best_of(
        VALUE_REPETITIONS, lambda: [kernel.value(g) for g in gammas])
    assert kernel_values == plain_values, "kernel broke V(γ) bit-identity"

    # -- lever 2: lazy vs eager cold start ----------------------------
    # Constructor-only timings: the lazy build defers the probe layout
    # and every transcendental α/Q entry, which is what a caller that
    # immediately probes one γ (or only gathers tables) actually pays.
    from repro.core.kernels import CompiledMeanField

    build_lazy_seconds, _ = _best_of(
        VALUE_REPETITIONS, lambda: CompiledMeanField(population))
    build_eager_seconds, _ = _best_of(
        VALUE_REPETITIONS,
        lambda: CompiledMeanField(population).materialize())

    # -- lever 3: bracketed probes on the γ grid ----------------------
    def _grid_warm():
        probe = kernel.probe_state()
        return [kernel.value(g, probe=probe) for g in gammas]

    value_warm_seconds, warm_values = _best_of(
        VALUE_REPETITIONS, _grid_warm)
    assert warm_values == plain_values, \
        "bracketed probe broke V(γ) bit-identity"

    # -- the consumers, end to end (compiled path re-builds inside) ---
    solve_plain_seconds, solve_plain = _best_of(
        RUN_REPETITIONS, solve_mfne, plain_map)
    solve_compiled_seconds, solve_compiled = _best_of(
        RUN_REPETITIONS, solve_mfne, mean_field)
    assert solve_compiled.utilization == solve_plain.utilization

    # Bracketed vs probe-less on the *prebuilt* kernel's full bisection
    # trajectory — the regime bracketing exists for (the bracket narrows,
    # so each probe re-searches fewer users).
    solve_warm_seconds, solve_warm = _best_of(
        RUN_REPETITIONS, solve_mfne, kernel)
    solve_cold_probe_seconds, solve_cold = _best_of(
        RUN_REPETITIONS, solve_mfne, _cold_twin(kernel))
    assert solve_warm.history == solve_cold.history, \
        "bracketed probes changed the solver trajectory"

    config = DtuConfig(seed=3)
    dtu_plain_seconds, dtu_plain = _best_of(
        RUN_REPETITIONS, run_dtu, plain_map, config)
    dtu_compiled_seconds, dtu_compiled = _best_of(
        RUN_REPETITIONS, run_dtu, mean_field, config)
    assert dtu_compiled.estimated_utilization == \
        dtu_plain.estimated_utilization

    return {
        "n_users": n_users,
        "max_threshold": kernel.stats.max_threshold,
        "breakpoints_total": kernel.stats.breakpoints_total,
        "kernel_bytes": kernel.stats.bytes,
        "build_seconds": round(kernel.stats.build_seconds, 4),
        "value_evaluations": N_EVALUATIONS,
        "value_plain_seconds": round(plain_seconds, 4),
        "value_compiled_seconds": round(compiled_seconds, 4),
        "value_speedup": round(plain_seconds / compiled_seconds, 2),
        "value_warm_seconds": round(value_warm_seconds, 4),
        "build_lazy_seconds": round(build_lazy_seconds, 4),
        "build_eager_seconds": round(build_eager_seconds, 4),
        "lazy_build_speedup": round(
            build_eager_seconds / build_lazy_seconds, 2),
        "solve_warm_seconds": round(solve_warm_seconds, 4),
        "solve_cold_probe_seconds": round(solve_cold_probe_seconds, 4),
        "warm_probe_speedup": round(
            solve_cold_probe_seconds / solve_warm_seconds, 2),
        "solve_plain_seconds": round(solve_plain_seconds, 4),
        "solve_compiled_seconds": round(solve_compiled_seconds, 4),
        "solve_speedup": round(solve_plain_seconds / solve_compiled_seconds, 2),
        "solve_iterations": solve_compiled.iterations,
        "dtu_plain_seconds": round(dtu_plain_seconds, 4),
        "dtu_compiled_seconds": round(dtu_compiled_seconds, 4),
        "dtu_speedup": round(dtu_plain_seconds / dtu_compiled_seconds, 2),
        "dtu_iterations": dtu_compiled.iterations,
        "gamma_star": round(solve_compiled.utilization, 6),
    }


def _measure_point_large(n_users: int = LARGE_SIZE, seed: int = 7) -> dict:
    """The compiled-only frontier row: build + γ grid + bracketed solve.

    The uncompiled staircase sweep is ``O(N·m_max)`` *per evaluation* —
    hours at N = 10⁷ — so this row never runs it: it times what the PR's
    three levers make feasible (one lazy fused build, 20 compiled
    ``V(γ)`` evaluations, and a full MFNE solve with bracketed vs cold
    probes). ``lazy_fill``/``probe_state`` mark the row as a distinct
    case for the ``repro.obs.bench`` normalizer.
    """
    from repro.core.equilibrium import solve_mfne
    from repro.core.kernels import CompiledMeanField
    from repro.population.scenarios import build_scenario
    from repro.population.sampler import sample_population

    population = sample_population(
        build_scenario("paper-theoretical"), n_users, rng=seed,
    )
    build_seconds, kernel = _time(CompiledMeanField, population)
    kernel.value(0.0)  # first probe materialises the probe layout
    gammas = [i / (N_EVALUATIONS - 1) for i in range(N_EVALUATIONS)]
    value_seconds, cold_values = _time(
        lambda: [kernel.value(g) for g in gammas])

    def _grid_warm():
        probe = kernel.probe_state()
        return [kernel.value(g, probe=probe) for g in gammas]

    value_warm_seconds, warm_values = _time(_grid_warm)
    assert warm_values == cold_values, \
        "bracketed probe broke V(γ) bit-identity"
    solve_warm_seconds, solve_warm = _time(solve_mfne, kernel)
    solve_cold_seconds, solve_cold = _time(solve_mfne, _cold_twin(kernel))
    assert solve_warm.history == solve_cold.history, \
        "bracketed probes changed the solver trajectory"
    return {
        "n_users": n_users,
        "lazy_fill": True,
        "probe_state": True,
        "compiled_only": True,
        "max_threshold": kernel.stats.max_threshold,
        "breakpoints_total": kernel.stats.breakpoints_total,
        "kernel_bytes": kernel.stats.bytes,
        "build_seconds": round(build_seconds, 4),
        "value_evaluations": N_EVALUATIONS,
        "value_compiled_seconds": round(value_seconds, 4),
        "value_warm_seconds": round(value_warm_seconds, 4),
        "solve_warm_seconds": round(solve_warm_seconds, 4),
        "solve_cold_probe_seconds": round(solve_cold_seconds, 4),
        "warm_probe_speedup": round(
            solve_cold_seconds / solve_warm_seconds, 2),
        "solve_iterations": solve_warm.iterations,
        "gamma_star": round(solve_warm.utilization, 6),
    }


def _run_isolated(argv: list) -> dict:
    """Run one measurement in a fresh interpreter; parse its JSON stdout.

    The N = 10⁶⁺ kernels allocate hundreds of MB; measuring several
    sizes in one process lets heap fragmentation and page-cache state
    from earlier points inflate later timings by tens of percent. A
    subprocess per point keeps every row a clean-slate measurement.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout)


def _measure_point_isolated(n_users: int) -> dict:
    return _run_isolated(["--point", str(n_users)])


def run_benchmark(quick: bool = False, isolate: bool = False,
                  large: bool = False) -> dict:
    from repro import __version__

    sizes = QUICK_SIZES if quick else FULL_SIZES
    measure = _measure_point_isolated if isolate else _measure_point
    points = [measure(n) for n in sizes]
    if large and not quick:
        points.append(
            _run_isolated(["--point-large", str(LARGE_SIZE)])
            if isolate else _measure_point_large(LARGE_SIZE))
    return {
        "benchmark": "repro.core.kernels — compiled vs uncompiled V(γ)",
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "protocol": {"value_evaluations": N_EVALUATIONS,
                     "scenario": "paper-theoretical",
                     "value_timings_use_prebuilt_kernel": True,
                     "solve_dtu_timings_include_build": True,
                     "warm_probe_timings_use_prebuilt_kernel": True,
                     "build_lazy_eager_are_constructor_only": True,
                     "value_repetitions_best_of": VALUE_REPETITIONS,
                     "run_repetitions_best_of": RUN_REPETITIONS,
                     "process_per_point": isolate},
        "points": points,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="cap populations at 1e4 (CI smoke; still "
                             "writes JSON)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_kernels.json")
    parser.add_argument("--point", type=int, metavar="N",
                        help=argparse.SUPPRESS)  # subprocess worker mode
    parser.add_argument("--point-large", type=int, metavar="N",
                        help=argparse.SUPPRESS)  # compiled-only worker mode
    parser.add_argument("--no-large", action="store_true",
                        help="skip the compiled-only N=1e7 frontier point")
    args = parser.parse_args(argv)
    if args.point is not None:
        print(json.dumps(_measure_point(args.point)))
        return 0
    if args.point_large is not None:
        print(json.dumps(_measure_point_large(args.point_large)))
        return 0
    report = run_benchmark(quick=args.quick, isolate=True,
                           large=not args.no_large)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    for point in report["points"]:
        if point.get("compiled_only"):
            print(f"N={point['n_users']:>10,}  compiled-only  "
                  f"value {point['value_compiled_seconds']:7.3f}s  "
                  f"warm-probe {point['warm_probe_speedup']:4.1f}x  "
                  f"build {point['build_seconds']:6.3f}s")
            continue
        print(f"N={point['n_users']:>10,}  "
              f"value {point['value_plain_seconds']:8.3f}s → "
              f"{point['value_compiled_seconds']:7.3f}s "
              f"({point['value_speedup']:6.1f}x)  "
              f"solve {point['solve_speedup']:5.1f}x  "
              f"dtu {point['dtu_speedup']:5.1f}x  "
              f"lazy-build {point['lazy_build_speedup']:5.1f}x  "
              f"warm-probe {point['warm_probe_speedup']:4.1f}x  "
              f"build {point['build_seconds']:6.3f}s")
    print(f"\nwrote {args.output}")
    return 0


def test_kernels_benchmark(once, regression_check):
    """One quick measured pass under ``pytest benchmarks/``."""
    report = once(run_benchmark, quick=True)
    regression_check(report, "BENCH_kernels.json")
    # Bit-identity is asserted inside every point; here pin the speed
    # claim at the largest quick size (the full bar lives in the
    # standalone run at N = 10⁵).
    big = report["points"][-1]
    assert big["value_compiled_seconds"] < big["value_plain_seconds"]


if __name__ == "__main__":
    sys.exit(main())
