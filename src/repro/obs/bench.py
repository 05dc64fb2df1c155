"""Benchmark-regression harness: one schema, one comparator.

The repo's benchmark suites each grew their own JSON shape
(``BENCH_runtime.json`` has ``workloads`` keyed by a label,
``BENCH_fastpath.json``/``BENCH_kernels.json`` have ``points`` keyed by
size, ``BENCH_net.json`` mixes both, ``BENCH_serve.json`` adds per-mode
latency percentiles). This module gives them a single
normalized form — ``repro.bench/v1`` — and a direction-aware comparator
so CI can fail on a real slowdown without anyone eyeballing tables::

    python -m repro.obs.bench normalize BENCH_net.json -o old.json
    python -m repro.obs.bench compare BENCH_net.json new_net.json \
        --tolerance 0.5   # exit 1 iff something regressed > 50%

Normalization is a *migration shim*, not a rewrite: every existing
``BENCH_*.json`` file is readable as-is. Each workload/point row becomes
a set of metrics with stable ids (``net/n_devices=100,loss=0.1/wall_seconds``)
and a direction inferred from the metric name — ``*_seconds`` timings
want to go down, ``*speedup*`` / ``*_per_second`` rates want to go up;
other fields are configuration, not performance, and are ignored.

The comparator is tolerant by construction: a metric present on only one
side is reported as ``skipped`` (quick-mode runs legitimately cover fewer
points), and ``--tolerance`` is a relative band — ``0.5`` lets timings
grow 1.5× and rates shrink to 1/1.5 before failing. Wall-clock noise on
shared CI runners is the reason the default is generous.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.utils.tables import format_table

SCHEMA = "repro.bench/v1"

#: Row fields that identify a case (in label order), not measure it.
#: ``mode``/``batch`` come from ``BENCH_serve.json`` (open vs closed
#: loop, devices per request) — different cases, not different values;
#: ``period``/``policy`` from ``BENCH_workload.json`` (schedule period,
#: device policy).
#: ``lazy_fill``/``probe_state`` from ``BENCH_kernels.json`` (which of
#: the kernel's deferred-build/warm-probe levers a row exercises).
_CASE_FIELDS = ("workload", "scenario", "n_devices", "n_users", "n_sites",
                "loss", "mode", "batch", "period", "policy",
                "lazy_fill", "probe_state")

#: Environment fields copied verbatim from the legacy top level.
_ENV_FIELDS = ("repro_version", "python", "platform", "cpu_count", "quick")

#: Latency-percentile metrics (``p50``, ``p99_seconds``, ``latency_p999``
#: ...): tail latencies regress upward, whatever suffix they carry.
_PERCENTILE = re.compile(r"(^|_)p\d+(_seconds)?$")


def metric_direction(name: str) -> Optional[str]:
    """``"lower"``/``"higher"`` for performance fields, None for config.

    Timings (``*_seconds``) and latency percentiles (``p50`` / ``p99`` /
    ``p999``, with or without a ``_seconds`` suffix) regress upward, as
    do equilibrium-tracking errors (``*_lag``, ``*_gap`` from
    ``BENCH_workload.json``) and memory sizes (``*_bytes``, e.g. the
    table image ``kernel_bytes`` from ``BENCH_kernels.json``); throughput,
    speedup, and efficiency ratios (``*speedup*``, ``*_per_second``,
    ``*_efficiency``) regress downward.
    """
    if "speedup" in name or name.endswith("_per_second") \
            or name.endswith("_efficiency"):
        return "higher"
    if name.endswith("_seconds") or name.endswith("_lag") \
            or name.endswith("_gap") or name.endswith("_bytes") \
            or _PERCENTILE.search(name) is not None:
        return "lower"
    return None


def _case_label(row: dict) -> str:
    parts = [f"{field}={row[field]}" for field in _CASE_FIELDS
             if field in row]
    return ",".join(parts) if parts else "default"


def normalize(data: Union[dict, str, Path],
              source: Optional[str] = None) -> dict:
    """A ``repro.bench/v1`` document from any benchmark JSON shape.

    Accepts a parsed dict or a path; already-normalized documents pass
    through unchanged (idempotent), so ``compare`` can mix raw and
    normalized inputs freely.
    """
    if not isinstance(data, dict):
        source = source or str(data)
        data = json.loads(Path(data).read_text())
    if data.get("schema") == SCHEMA:
        return data
    benchmark = data.get("benchmark", "unknown")
    rows = data.get("workloads") or data.get("points") or []
    metrics: List[dict] = []
    for row in rows:
        case = _case_label(row)
        for field, value in row.items():
            direction = metric_direction(field)
            if direction is None or not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                continue
            metrics.append({
                "id": f"{benchmark}/{case}/{field}",
                "value": float(value),
                "direction": direction,
            })
    return {
        "schema": SCHEMA,
        "benchmark": benchmark,
        "source": source,
        "environment": {field: data.get(field) for field in _ENV_FIELDS},
        "metrics": metrics,
    }


def compare(old: Union[dict, str, Path], new: Union[dict, str, Path],
            tolerance: float = 0.25) -> dict:
    """Direction-aware comparison of two benchmark documents.

    Returns ``{"regressions": [...], "improvements": [...],
    "unchanged": [...], "skipped": [...], "tolerance": ...}`` where each
    entry carries the metric id, both values, and the ratio new/old.
    A regression is a timing above ``old·(1+tolerance)`` or a rate below
    ``old/(1+tolerance)``.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    old_doc, new_doc = normalize(old), normalize(new)
    old_metrics = {m["id"]: m for m in old_doc["metrics"]}
    new_metrics = {m["id"]: m for m in new_doc["metrics"]}
    result: Dict[str, list] = {"regressions": [], "improvements": [],
                               "unchanged": [], "skipped": []}
    for metric_id in sorted(set(old_metrics) | set(new_metrics)):
        before = old_metrics.get(metric_id)
        after = new_metrics.get(metric_id)
        if before is None or after is None:
            result["skipped"].append({
                "id": metric_id,
                "reason": "missing in " + ("old" if before is None else "new"),
            })
            continue
        entry = {
            "id": metric_id,
            "direction": before["direction"],
            "old": before["value"],
            "new": after["value"],
            "ratio": (after["value"] / before["value"]
                      if before["value"] else float("inf")),
        }
        worse = (entry["ratio"] > 1.0 + tolerance
                 if before["direction"] == "lower"
                 else entry["ratio"] < 1.0 / (1.0 + tolerance))
        better = (entry["ratio"] < 1.0 / (1.0 + tolerance)
                  if before["direction"] == "lower"
                  else entry["ratio"] > 1.0 + tolerance)
        if worse:
            result["regressions"].append(entry)
        elif better:
            result["improvements"].append(entry)
        else:
            result["unchanged"].append(entry)
    result["tolerance"] = tolerance
    return result


def render_comparison(result: dict) -> str:
    """The comparison as an aligned table plus a one-line verdict."""
    rows = []
    for status in ("regressions", "improvements", "unchanged"):
        for entry in result[status]:
            rows.append((
                entry["id"], entry["direction"],
                f"{entry['old']:.6g}", f"{entry['new']:.6g}",
                f"{entry['ratio']:.3f}", status[:-1] if status != "unchanged"
                else "ok",
            ))
    blocks = []
    if rows:
        blocks.append(format_table(
            headers=("metric", "wants", "old", "new", "new/old", "verdict"),
            rows=rows,
            title=f"Benchmark comparison (tolerance ±{result['tolerance']:.0%})",
        ))
    for entry in result["skipped"]:
        blocks.append(f"skipped {entry['id']}: {entry['reason']}")
    n_reg = len(result["regressions"])
    blocks.append(
        f"REGRESSED: {n_reg} metric(s) beyond tolerance" if n_reg
        else f"PASS: no regressions beyond ±{result['tolerance']:.0%} "
             f"({len(result['unchanged']) + len(result['improvements'])} "
             f"metrics compared)")
    return "\n\n".join(blocks)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Normalize benchmark JSON and compare runs for "
                    "regressions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    norm = sub.add_parser("normalize",
                          help="emit the repro.bench/v1 form of a file")
    norm.add_argument("file", help="a BENCH_*.json (any legacy shape)")
    norm.add_argument("-o", "--output", default=None,
                      help="write here instead of stdout")
    comp = sub.add_parser("compare",
                          help="compare two runs; exit 1 on regression")
    comp.add_argument("old", help="baseline benchmark JSON")
    comp.add_argument("new", help="candidate benchmark JSON")
    comp.add_argument("--tolerance", type=float, default=0.25,
                      help="allowed relative slack (default 0.25 = 25%%)")
    args = parser.parse_args(argv)
    try:
        if args.command == "normalize":
            document = json.dumps(normalize(args.file), indent=2)
            if args.output:
                Path(args.output).write_text(document + "\n")
            else:
                print(document)
            return 0
        result = compare(args.old, args.new, tolerance=args.tolerance)
    except (FileNotFoundError, NotADirectoryError, PermissionError,
            json.JSONDecodeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_comparison(result))
    return 1 if result["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
