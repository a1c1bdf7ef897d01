"""Golden-master canonicalisation for metrics artefacts.

A batch's ``metrics.json`` is a pure function of its specs *except* for
three fields: the wall-clock ``timers`` sections, the top-level
``workers`` count, and the embedded ``timings`` section (all wall
clock).  :func:`canonical_metrics_doc` strips exactly those,
so the digest of the canonical form is the contract the golden tests
pin down: bit-identical across ``REPRO_WORKERS`` values and with
lineage tracing on or off.

When a digest check fails, :func:`diff_metrics_docs` renders a per-
section, per-key diff — "counter attacker.hits: 41 != 43 (runs[2])" —
instead of two opaque hashes, so a legitimate behaviour change is
reviewable and :mod:`tests.regen_golden` can be re-run with intent.
"""

from __future__ import annotations

import copy
import hashlib
import json
from typing import List

_NONDETERMINISTIC_TOP_LEVEL = ("workers", "timings")

#: Metric namespace for sharded-run *operational* data (migration
#: counts, per-shard gauges, routing volumes).  Those values
#: legitimately change with the shard count, so canonicalisation drops
#: them the same way it drops wall-clock timers; the ``shardsim.*``
#: workload namespace stays and must be bit-identical at any count.
OPS_METRIC_PREFIX = "shardops."


def _strip_snapshot(snap: dict) -> None:
    snap.pop("timers", None)
    for section in ("counters", "gauges", "histograms", "series"):
        values = snap.get(section)
        if isinstance(values, dict):
            for key in [k for k in values if k.startswith(OPS_METRIC_PREFIX)]:
                del values[key]


def canonical_metrics_doc(doc: dict) -> dict:
    """A deep copy of a metrics artefact with every non-deterministic
    field removed: wall-clock ``timers``, the ``workers`` count, the
    embedded wall-clock ``timings`` section, and the shard-count-
    dependent ``shardops.*`` metric namespace."""
    out = copy.deepcopy(doc)
    for field in _NONDETERMINISTIC_TOP_LEVEL:
        out.pop(field, None)
    merged = out.get("merged")
    if isinstance(merged, dict):
        _strip_snapshot(merged)
    for run in out.get("runs", ()):
        metrics = run.get("metrics")
        if isinstance(metrics, dict):
            _strip_snapshot(metrics)
    return out


def canonical_json(doc: dict) -> str:
    """Canonical (sorted, compact) JSON of the canonical form."""
    return json.dumps(
        canonical_metrics_doc(doc), sort_keys=True, separators=(",", ":")
    )


def metrics_digest(doc: dict) -> str:
    """SHA-256 over :func:`canonical_json` — the golden fixture value."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _diff_section(path: str, a: dict, b: dict, lines: List[str], limit: int) -> None:
    keys = sorted(set(a) | set(b))
    for key in keys:
        if len(lines) >= limit:
            return
        if key not in a:
            lines.append(f"{path}[{key!r}]: only in new ({b[key]!r})")
        elif key not in b:
            lines.append(f"{path}[{key!r}]: only in old ({a[key]!r})")
        elif a[key] != b[key]:
            lines.append(f"{path}[{key!r}]: {a[key]!r} != {b[key]!r}")


def _diff_snapshot(path: str, a: dict, b: dict, lines: List[str], limit: int) -> None:
    for section in ("counters", "gauges", "histograms", "series"):
        _diff_section(
            f"{path}.{section}",
            a.get(section, {}),
            b.get(section, {}),
            lines,
            limit,
        )


def diff_metrics_docs(old: dict, new: dict, limit: int = 40) -> str:
    """Readable per-section difference between two metrics artefacts.

    Returns the empty string when their canonical forms are identical.
    ``old``/``new`` label the two sides in the output; at most ``limit``
    lines are emitted (with a truncation marker beyond that).
    """
    a = canonical_metrics_doc(old)
    b = canonical_metrics_doc(new)
    if a == b:
        return ""
    lines: List[str] = []
    for field in ("schema", "run_count"):
        if a.get(field) != b.get(field):
            lines.append(f"{field}: {a.get(field)!r} != {b.get(field)!r}")
    _diff_snapshot("merged", a.get("merged", {}), b.get("merged", {}), lines, limit)
    runs_a, runs_b = a.get("runs", []), b.get("runs", [])
    if len(runs_a) != len(runs_b):
        lines.append(f"runs: {len(runs_a)} entries != {len(runs_b)} entries")
    for i, (ra, rb) in enumerate(zip(runs_a, runs_b)):
        if len(lines) >= limit:
            break
        for field in ("tag", "attacker", "venue", "seed", "failed", "error"):
            if ra.get(field) != rb.get(field):
                lines.append(
                    f"runs[{i}].{field}: {ra.get(field)!r} != {rb.get(field)!r}"
                )
        _diff_snapshot(
            f"runs[{i}].metrics",
            ra.get("metrics", {}),
            rb.get("metrics", {}),
            lines,
            limit,
        )
        if ra.get("events") != rb.get("events"):
            lines.append(f"runs[{i}].events differ")
    if len(lines) >= limit:
        lines.append(f"... diff truncated at {limit} lines")
    if not lines:
        # Canonical forms differ but no section rule matched — dump the
        # top-level keys so the failure is still actionable.
        lines.append(
            "docs differ outside known sections: keys %r vs %r"
            % (sorted(a), sorted(b))
        )
    return "\n".join(lines)
