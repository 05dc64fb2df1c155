"""One command for the repository benchmark.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 20 --trace 0

Workloads: ``solve``, ``serve-batch``, ``serve-single``, ``net`` (see
``perfbench/README.md`` for why each exists and what it predicts;
``BENCHMARK.json`` gates all but ``serve-single``).  With
``--trace 0`` the last stdout line carries every end-to-end metric named
in ``BENCHMARK.json``; with ``--trace 1`` every per-layer metric, from a
run whose layer calls are wrapped by the benchmark's own tracer.  The
lines before it give the workload's own numbers with sample counts, the
host and the correctness verdict.  Any failed correctness check makes the
command exit 1; a checkout without the package sources exits 2 without
printing a result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import ROOT, SetupError, environment, use_checkout_sources

WORKLOADS = ("solve", "serve-batch", "serve-single", "net")
EXPECTED = ROOT / "perfbench" / "expected.json"


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _expected(workload: str, seed: int):
    """Outputs recorded for this workload and seed, if any were."""
    with open(EXPECTED, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed))


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    expected = _expected(workload, seed)
    if workload == "solve":
        import solve
        return solve.run(seed, seconds, trace, expected)
    if workload == "net":
        import net
        return net.run(seed, seconds, trace, expected)
    import serve
    return serve.run(workload, seed, seconds, trace, expected)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        use_checkout_sources()
        spec = _spec()
    except (SetupError, OSError) as error:
        print(f"cannot run the benchmark here: {error}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    kind = "per_layer" if args.trace else "end_to_end"
    produced = result.get(kind, {})
    metrics = {}
    for metric in spec[kind]:
        name = metric["name"]
        # A per-layer metric of a layer this workload never calls reads 0.
        value = produced.pop(name, 0.0 if args.trace else None)
        if value is None:
            raise KeyError(f"{args.workload} did not measure {name}")
        metrics[name] = {"value": float(value), "unit": metric["unit"]}
    if produced:
        raise KeyError(f"metrics missing from BENCHMARK.json: {produced}")

    print(f"environment: {json.dumps(environment())}")
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {time.perf_counter() - started:.1f} s")
    for line in result["lines"]:
        print(line)
    if result["record"] is not None:
        print(f"record: {json.dumps(result['record'])}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = not result["failures"]
    for failure in result["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
