"""Bench-regression gate: current ``BENCH_*.json`` vs committed baseline.

A baseline benchmark document is committed under
``benchmarks/baselines/``, CI re-runs the benchmark, and ``repro obs
bench`` compares the two with a configurable tolerance, failing on
regressions and appending every comparison to a trajectory JSONL
artefact so the history stays inspectable.

Schema awareness lives in :func:`extract_bench_metrics`, one extractor
per benchmark (``repro.bench_shards/v1`` and ``repro.bench_serve/v1``):
each marks the metrics it gates and extracts the rest as informational
rows for the trajectory.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Union

BENCH_TOLERANCE_DEFAULT = 0.05
"""Allowed fractional regression before the gate fails (5 %)."""

SHARDS_SCHEMA = "repro.bench_shards/v1"
SERVE_SCHEMA = "repro.bench_serve/v1"


def load_bench_doc(path: Union[str, pathlib.Path]) -> dict:
    path = pathlib.Path(path)
    doc = json.loads(path.read_text())
    if not isinstance(doc, dict) or "schema" not in doc:
        raise ValueError("%s is not a benchmark document (no schema)" % path)
    return doc


def extract_bench_metrics(doc: dict) -> Dict[str, dict]:
    """Flatten a benchmark document to ``name -> metric`` rows.

    Each metric row is ``{"value": float, "higher_better": bool,
    "gated": bool}``.  Only ``gated`` metrics can fail the gate; the
    rest ride along for the trajectory artefact.
    """
    schema = doc.get("schema")
    metrics: Dict[str, dict] = {}
    if schema == SHARDS_SCHEMA:
        # Gated: per-point speedup vs the 1-shard run of the same
        # station count (relative, hardware-stable).  Informational:
        # stations-stepped/sec and the handoff overhead fraction.
        for point in doc.get("grid", []):
            at = "%dst/%dsh" % (point["stations"], point["shards"])
            if point["shards"] > 1:
                metrics["speedup@%s" % at] = {
                    "value": float(point["speedup"]),
                    "higher_better": True,
                    "gated": True,
                }
            metrics["stations_per_s@%s" % at] = {
                "value": float(point["stations_per_s"]),
                "higher_better": True,
                "gated": False,
            }
            metrics["handoff_fraction@%s" % at] = {
                "value": float(point["handoff_fraction"]),
                "higher_better": False,
                "gated": False,
            }
        if "max_speedup" in doc:
            metrics["max_speedup"] = {
                "value": float(doc["max_speedup"]),
                "higher_better": True,
                "gated": True,
            }
        return metrics
    if schema == SERVE_SCHEMA:
        # Gated: sustained probes/s per grid point and the shed
        # fraction (the committed baseline throughput is deliberately
        # conservative — a fraction of local numbers — so the gate
        # catches order-of-magnitude regressions, not runner noise).
        # Informational: latency percentiles and the rank-cache hit
        # rate, both too hardware/GC-sensitive to gate.
        for point in doc.get("grid", []):
            at = "%dcl" % point["clients"]
            metrics["probes_per_s@%s" % at] = {
                "value": float(point["probes_per_s"]),
                "higher_better": True,
                "gated": True,
            }
            metrics["shed_fraction@%s" % at] = {
                "value": float(point["shed_fraction"]),
                "higher_better": False,
                "gated": True,
            }
            for name, higher in (("p50_us", False), ("p99_us", False),
                                 ("rank_cache_hit_rate", True)):
                value = point.get(name)
                if value is not None:
                    metrics["%s@%s" % (name, at)] = {
                        "value": float(value),
                        "higher_better": higher,
                        "gated": False,
                    }
        if "max_probes_per_s" in doc:
            metrics["max_probes_per_s"] = {
                "value": float(doc["max_probes_per_s"]),
                "higher_better": True,
                "gated": True,
            }
        return metrics
    raise ValueError("no metric extractor for benchmark schema %r" % schema)


def compare_bench(
    current: dict,
    baseline: dict,
    tolerance: float = BENCH_TOLERANCE_DEFAULT,
) -> dict:
    """Compare two benchmark documents; returns the full delta report.

    A *gated* metric regresses when it falls short of the baseline by
    more than ``tolerance`` (fractionally), in its bad direction.
    Metrics present on only one side are reported but never regress —
    grid changes should not brick the gate.
    """
    if current.get("schema") != baseline.get("schema"):
        raise ValueError(
            "schema mismatch: current %r vs baseline %r"
            % (current.get("schema"), baseline.get("schema"))
        )
    cur = extract_bench_metrics(current)
    base = extract_bench_metrics(baseline)
    deltas: List[dict] = []
    for name in sorted(set(cur) | set(base)):
        c = cur.get(name)
        b = base.get(name)
        row: dict = {"metric": name}
        if c is None or b is None:
            row.update(
                {
                    "current": c["value"] if c else None,
                    "baseline": b["value"] if b else None,
                    "ratio": None,
                    "gated": bool((c or b)["gated"]),
                    "regressed": False,
                    "note": "only in current" if c else "only in baseline",
                }
            )
            deltas.append(row)
            continue
        ratio = c["value"] / b["value"] if b["value"] else None
        if c["higher_better"]:
            regressed = c["value"] < b["value"] * (1.0 - tolerance)
        else:
            regressed = c["value"] > b["value"] * (1.0 + tolerance)
        row.update(
            {
                "current": c["value"],
                "baseline": b["value"],
                "ratio": round(ratio, 4) if ratio is not None else None,
                "gated": c["gated"],
                "regressed": bool(c["gated"] and regressed),
            }
        )
        deltas.append(row)
    return {
        "schema": "repro.bench_compare/v1",
        "bench_schema": current.get("schema"),
        "tolerance": tolerance,
        "deltas": deltas,
        "regressions": [d["metric"] for d in deltas if d["regressed"]],
        "ok": not any(d["regressed"] for d in deltas),
    }


def render_bench_report(report: dict) -> str:
    """Terminal rendering of a :func:`compare_bench` report."""
    lines = [
        "bench gate (%s, tolerance %.0f%%)"
        % (report.get("bench_schema"), report["tolerance"] * 100),
        f"{'metric':<28} {'baseline':>12} {'current':>12} {'ratio':>8}  verdict",
    ]
    for d in report["deltas"]:
        baseline = "%.4g" % d["baseline"] if d["baseline"] is not None else "-"
        current = "%.4g" % d["current"] if d["current"] is not None else "-"
        ratio = "%.3f" % d["ratio"] if d["ratio"] is not None else "-"
        if d["regressed"]:
            verdict = "REGRESSED"
        elif not d["gated"]:
            verdict = d.get("note", "info")
        else:
            verdict = d.get("note", "ok")
        lines.append(
            f"{d['metric']:<28} {baseline:>12} {current:>12} {ratio:>8}  {verdict}"
        )
    lines.append(
        "gate: %s"
        % (
            "OK"
            if report["ok"]
            else "FAIL (%s)" % ", ".join(report["regressions"])
        )
    )
    return "\n".join(lines)


def append_trajectory(
    path: Union[str, pathlib.Path],
    report: dict,
    meta: Optional[dict] = None,
) -> pathlib.Path:
    """Append one comparison to the trajectory JSONL artefact.

    Only the gated metric values ride along — the point of the
    trajectory is a compact, greppable history of the numbers the gate
    watches.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "bench_schema": report.get("bench_schema"),
        "tolerance": report["tolerance"],
        "ok": report["ok"],
        "regressions": report["regressions"],
        "gated": {
            d["metric"]: d["current"]
            for d in report["deltas"]
            if d["gated"] and d["current"] is not None
        },
    }
    if meta:
        entry.update(meta)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return path
