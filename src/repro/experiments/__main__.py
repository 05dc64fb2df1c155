"""Run the full experiment suite at reduced scale and print every artifact.

Usage::

    python -m repro.experiments                    # quick pass (~1 minute)
    python -m repro.experiments --full             # paper-scale populations
    python -m repro.experiments --jobs 4 --cache .repro-cache
    python -m repro.experiments fig2 --trace out/  # observed run: JSONL
                                                   # events + metrics +
                                                   # manifest in out/

``--jobs N`` fans the repetition/replication loops of the artifacts that
support it (currently ``table3``) out over N worker processes, and
``--cache DIR`` attaches the :mod:`repro.runtime` content-addressed result
cache, so re-running an artifact re-uses every previously computed task —
both leave the printed numbers bit-identical.

``--backend vectorized`` switches the Markovian simulations onto the
uniformized-CTMC fast path (:mod:`repro.simulation.fastpath`): the
``learning`` windows run vectorized, and ``table3`` gains a simulated
DTU-cost cross-check next to the closed-form number.

``--trace DIR`` turns the whole run into an observed run (through
:func:`repro.obs.observed_run`, the scaffold every observed entry point
shares): a :class:`~repro.obs.manifest.RunManifest` of every parsed
argument, an ``events.jsonl`` event trace, a ``spans.jsonl`` causal-span
log and a ``metrics.json`` snapshot land in DIR, summarisable afterwards
with ``python -m repro.obs.report DIR`` (span trees:
``python -m repro.obs.spans DIR``; live tail:
``python -m repro.obs.watch DIR --follow``). ``--metrics`` prints the
metrics table at the end without writing files; ``--serve-metrics PORT``
additionally exposes the live registry as a Prometheus ``/metrics``
endpoint for the duration of the run; ``--profile`` wraps each artifact in
cProfile and prints a hotspot table (plus flamegraph-ready
``profile.collapsed`` under ``--trace``); ``--quiet`` silences the human
output.

The ``benchmarks/`` directory runs the same experiments under
pytest-benchmark with per-artifact timing.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.obs import StructuredLogger, observed_run, use_recorder
from repro.experiments import (
    ablations,
    edge_model,
    extensions,
    fairness,
    learning,
    model_mismatch,
    multiedge_experiment,
    online_experiment,
    robustness,
    robustness_net,
    tails,
    workload_learning,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    table1,
    table2,
    table3,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate every table and figure of the paper.",
    )
    parser.add_argument("artifacts", nargs="*", metavar="ARTIFACT",
                        help="artifact names to run (default: all), "
                             "e.g. 'fig2 table1'")
    parser.add_argument("--full", action="store_true",
                        help="use paper-scale populations (slower)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--only", type=str, default=None,
                        help="comma-separated artifact list, e.g. 'table1,fig5'")
    parser.add_argument("--export", type=str, default=None, metavar="DIR",
                        help="also write each exportable artifact to "
                             "DIR/<name>.csv and DIR/<name>.json")
    parser.add_argument("--trace", type=str, default=None, metavar="DIR",
                        help="write manifest.json, events.jsonl and "
                             "metrics.json to DIR (see repro.obs.report)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect metrics and print the table at the end")
    parser.add_argument("--serve-metrics", type=int, default=None,
                        metavar="PORT",
                        help="serve a live Prometheus /metrics endpoint on "
                             "localhost:PORT for the duration of the run "
                             "(implies in-memory metrics collection)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the run with cProfile; prints a "
                             "hotspot table and, with --trace, writes "
                             "profile.pstats/.collapsed into the trace dir")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress human-readable stdout output")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the fan-out loops of "
                             "artifacts that support it (default 1: inline)")
    parser.add_argument("--cache", type=str, default=None, metavar="DIR",
                        help="repro.runtime result-cache directory shared "
                             "by all artifacts in this run")
    parser.add_argument("--backend", choices=("event", "vectorized"),
                        default=None,
                        help="simulation backend for the artifacts that "
                             "support it (learning windows; table3 adds a "
                             "simulated DTU-cost cross-check). 'vectorized' "
                             "is the uniformized-CTMC fast path")
    parser.add_argument("--list", action="store_true",
                        help="list the available artifact names and exit")
    args = parser.parse_args(argv)

    quick_n = 10_000 if args.full else 2_000
    practical_n = 1_000 if args.full else 500
    table3_reps = 2_000 if args.full else 200

    jobs = {
        "table1": lambda: table1.run(n_users=quick_n, rng=args.seed),
        "table2": lambda: table2.run(n_users=practical_n, rng=args.seed),
        "table3": lambda: table3.run(n_users=practical_n,
                                     repetitions=table3_reps, seed=args.seed,
                                     jobs=args.jobs, cache=args.cache,
                                     backend=args.backend),
        "fig2": lambda: fig2.run(),
        "fig3": lambda: fig3.run(),
        "fig4": lambda: fig4.run(n_users=quick_n, rng=args.seed),
        "fig5": lambda: fig5.run(n_users=quick_n, rng=args.seed),
        "fig6": lambda: fig6.run(),
        "fig7": lambda: fig7.run(n_users=practical_n, seed=args.seed),
        "fig8": lambda: fig8.run(),
        "ablations": lambda: ablations.run(n_users=quick_n // 2, seed=args.seed),
        "extensions": lambda: extensions.run(seed=args.seed,
                                             quick=not args.full),
        "robustness": lambda: robustness.run(n_users=quick_n // 2,
                                             seed=args.seed),
        "robustness_net": lambda: robustness_net.run(
            n_users=500 if args.full else 200, seed=args.seed,
        ),
        "tails": lambda: tails.run(
            n_users=60 if args.full else 25,
            horizon=3000.0 if args.full else 1200.0,
            seed=args.seed,
        ),
        "model_mismatch": lambda: model_mismatch.run(
            n_users=120 if args.full else 50, seed=args.seed,
        ),
        "multiedge": lambda: multiedge_experiment.run(
            n_users=4000 if args.full else 1500, seed=args.seed,
        ),
        "edge_model": lambda: edge_model.run(
            des_horizon=4000.0 if args.full else 1500.0, seed=args.seed,
        ),
        "learning": lambda: learning.run(
            n_users=150 if args.full else 80,
            iterations=25 if args.full else 15,
            seed=args.seed,
            backend=args.backend or "event",
        ),
        "fairness": lambda: fairness.run(
            n_users=5000 if args.full else 2000, seed=args.seed,
        ),
        "online": lambda: online_experiment.run(
            n_users=200 if args.full else 100,
            duration=600.0 if args.full else 300.0,
            seed=args.seed,
        ),
        "workload_learning": lambda: workload_learning.run(
            n_users=150 if args.full else 80,
            rounds=60 if args.full else 40,
            seeds=(0, 1, 2) if args.full else (0, 1),
            seed=args.seed,
        ),
    }
    if args.list:
        for name in jobs:
            print(name)
        return 0

    if args.artifacts and args.only is not None:
        parser.error("give artifacts positionally or via --only, not both")
    if args.artifacts:
        selected = list(args.artifacts)
    elif args.only is not None:
        selected = [name.strip() for name in args.only.split(",")]
    else:
        selected = list(jobs)
    unknown = [name for name in selected if name not in jobs]
    if unknown:
        parser.error(f"unknown artifacts: {', '.join(unknown)}")

    export_dir = None
    if args.export is not None:
        from pathlib import Path
        export_dir = Path(args.export)
        export_dir.mkdir(parents=True, exist_ok=True)

    profiler = None
    if args.profile:
        from repro.obs.profile import Profiler
        profiler = Profiler()

    # --trace writes a full trace directory, --metrics collects in memory
    # only, --serve-metrics exports the registry; one recorder feeds all.
    with observed_run(args.seed, args, args.trace, args.serve_metrics,
                      metrics=args.metrics, quiet=args.quiet) as recorder, \
            use_recorder(recorder):
        log = StructuredLogger(quiet=args.quiet, recorder=recorder)
        for name in selected:
            started = time.perf_counter()
            if profiler is not None:
                profiler.start()
            try:
                result = jobs[name]()
            finally:
                if profiler is not None:
                    profiler.stop()
            elapsed = time.perf_counter() - started
            if recorder.enabled:
                recorder.observe("experiments.artifact_seconds", elapsed)
                recorder.event("artifact.completed", name=name,
                               seconds=elapsed)
            log.section(f"[{name}] ({elapsed:.1f}s)")
            log.raw(str(result))
            if export_dir is not None:
                _export(result, name, export_dir)
        if args.metrics:
            rendered = recorder.registry.render()
            if rendered:
                print(f"\n{rendered}")
        if profiler is not None:
            print(f"\n{profiler.render()}")
            if args.trace is not None:
                profiler.save(args.trace)
    return 0


def _export(result, name: str, directory) -> None:
    """Write every exportable piece of ``result`` to CSV + JSON files."""
    from repro.experiments.report import ComparisonResult, SeriesResult
    from repro.utils.export import write_result

    pieces = []
    if isinstance(result, (SeriesResult, ComparisonResult)):
        pieces.append((name, result))
    else:
        # Composite results: export each SeriesResult/ComparisonResult
        # attribute or list entry under a suffixed name.
        attributes = getattr(result, "__dict__", {})
        for key, value in attributes.items():
            if isinstance(value, (SeriesResult, ComparisonResult)):
                pieces.append((f"{name}_{key}", value))
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, (SeriesResult, ComparisonResult)):
                        pieces.append((f"{name}_{key}{index}", item))
            elif isinstance(value, dict):
                for sub, item in value.items():
                    inner = getattr(item, "series", None)
                    if isinstance(inner, (SeriesResult, ComparisonResult)):
                        safe = str(sub).replace("[", "").replace("]", "") \
                            .replace("<", "lt").replace(">", "gt") \
                            .replace("=", "eq")
                        pieces.append((f"{name}_{safe}", inner))
    for piece_name, piece in pieces:
        write_result(piece, directory / f"{piece_name}.csv")
        write_result(piece, directory / f"{piece_name}.json")


if __name__ == "__main__":
    sys.exit(main())
