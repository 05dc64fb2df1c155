"""repro.serve benchmark — the wall-clock decision daemon under load.

Boots a :class:`~repro.serve.httpd.DecisionServer` on an ephemeral
loopback port and replays seeded traffic through the real HTTP stack
(:mod:`repro.serve.replay`), measuring what a client sees:

* ``single`` — closed-loop, one device per request: the per-request
  overhead floor;
* ``batch``  — closed-loop, 1000 devices per request: the amortised
  path, one gather of 1000 rows from the round's published fleet answer
  per request, no kernel probe (the acceptance bar is ≥10× the
  single-request decision throughput);
* ``overload`` — open-loop arrivals far past a deliberately tiny
  admission watermark: shedding (503) must absorb the excess with zero
  transport errors and a bounded p99 instead of collapsing latency.

Writes ``BENCH_serve.json`` at the repo root with throughput, latency
percentiles (p50/p99/p99.9), and shed-rate columns per workload.

Standalone (the ``make bench-serve`` target)::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--output F]

Under ``pytest benchmarks/`` a reduced measurement runs once through the
shared ``once`` fixture and is regression-checked against the committed
``BENCH_serve.json``; the JSON artifact is only written by the
standalone entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))


def _server(n_users: int, watermark: int = 64, round_period: float = 0.1):
    from repro.population.scenarios import build_scenario
    from repro.population.sampler import sample_population
    from repro.serve import DecisionServer, DecisionService, ServeConfig

    population = sample_population(build_scenario("paper-theoretical"),
                                   n_users, rng=7)
    config = ServeConfig(round_period=round_period, watermark=watermark)
    return DecisionServer(DecisionService(population, config))


def measure_workload(name: str, n_users: int, requests: int, batch: int,
                     rate: float = 0.0, workers: int = 4,
                     watermark: int = 64) -> dict:
    """One boot → replay → teardown cycle; returns a workload row."""
    from repro.serve.replay import ReplayConfig, run_replay

    with _server(n_users, watermark=watermark) as server:
        report = run_replay(ReplayConfig(
            url=server.url, requests=requests, batch=batch, rate=rate,
            workers=workers, seed=11,
        ))
    return report.workload(name)


def run_benchmark(quick: bool = False) -> dict:
    from repro.serve.replay import bench_document

    n_users = 10_000 if quick else 1_000_000
    requests = 400 if quick else 2_000
    workloads = [
        measure_workload("single", n_users, requests=requests, batch=1),
        measure_workload("batch", n_users, requests=requests, batch=1000),
        # Open-loop arrivals at ~10× what a watermark of 2 admits: the
        # daemon must shed, not queue.
        measure_workload("overload", n_users, requests=requests, batch=200,
                         rate=2_000.0, workers=16, watermark=2),
    ]
    return bench_document(workloads, quick=quick)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced scale (CI smoke; still writes JSON)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_serve.json")
    args = parser.parse_args(argv)
    report = run_benchmark(quick=args.quick)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    for entry in report["workloads"]:
        print(f"{entry['workload']:>9} ({entry['mode']}-loop, "
              f"batch={entry['batch']:>4}): "
              f"{entry['decisions_per_second']:>12,.0f} dec/s  "
              f"p99={1e3 * entry['p99_seconds']:7.2f}ms  "
              f"shed={100 * entry['shed_rate']:5.1f}%  "
              f"errors={entry['errors']}")
    print(f"\nwrote {args.output}")
    return 0


def test_serve_benchmark(once, regression_check):
    """One quick measured pass under ``pytest benchmarks/``."""
    report = once(run_benchmark, quick=True)
    regression_check(report, "BENCH_serve.json")
    rows = {entry["workload"]: entry for entry in report["workloads"]}
    # The whole point of the batched path: one request gathers 1000 rows
    # of the published fleet answer, so decision throughput must dwarf
    # the single path.
    assert rows["batch"]["decisions_per_second"] >= \
        10 * rows["single"]["decisions_per_second"]
    for name in ("single", "batch"):
        assert rows[name]["errors"] == 0
        assert rows[name]["shed_rate"] == 0.0
    # Overload degrades gracefully: excess load is shed as 503s, never
    # as transport errors, and admitted requests keep a bounded tail.
    assert rows["overload"]["shed_rate"] > 0.0
    assert rows["overload"]["errors"] == 0
    assert rows["overload"]["p99_seconds"] < 5.0


if __name__ == "__main__":
    sys.exit(main())
