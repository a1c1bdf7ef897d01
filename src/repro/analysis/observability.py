"""Readers for the metrics artefact.

These helpers turn the raw ``metrics.json`` document (written by
:func:`repro.experiments.parallel.write_metrics`) back into the views
the paper cares about: the Table II-style provenance breakdown of sent
SSIDs vs hits, the top hit SSIDs, and the PB/FB adaptation timeline of
one run.  They operate on plain dicts so they work equally on a
just-merged registry or on a document loaded from disk.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.registry import (
    estimate_percentile,
    parse_key,
    validate_metrics_doc,
)

PROVENANCE_ORDER = (
    "wigle-near",
    "wigle-heat",
    "wigle",
    "carrier",
    "overheard-direct",
    "mimic",
)
"""Display order for provenance rows (coarse ``wigle`` appears only for
flat-database attackers that cannot split near from heat-ranked)."""


def load_metrics(path: Union[str, pathlib.Path]) -> dict:
    """Load and validate a metrics artefact document."""
    doc = json.loads(pathlib.Path(path).read_text())
    validate_metrics_doc(doc)
    return doc


def _sum_by_label(
    counters: Dict[str, float], name: str, label: str
) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in counters.items():
        base, labels = parse_key(key)
        if base == name and label in labels:
            out[labels[label]] = out.get(labels[label], 0) + value
    return out


def provenance_breakdown(
    snapshot: dict,
) -> List[Tuple[str, int, int, int, float]]:
    """Rows of (provenance, ssids_sent, hits, misses, hit_rate).

    ``misses`` counts advertised SSIDs that never produced a hit for
    that provenance class — the efficiency view behind the paper's
    Table II / Fig. 6 discussion.  Provenances the run never touched are
    omitted; unknown labels sort after the canonical order.
    """
    counters = snapshot.get("counters", {})
    sent = _sum_by_label(counters, "attacker.ssids_sent", "provenance")
    hits = _sum_by_label(counters, "attacker.hits", "provenance")
    seen = set(sent) | set(hits)
    ordered = [p for p in PROVENANCE_ORDER if p in seen]
    ordered += sorted(seen - set(PROVENANCE_ORDER))
    rows = []
    for prov in ordered:
        s = int(sent.get(prov, 0))
        h = int(hits.get(prov, 0))
        rows.append((prov, s, h, max(0, s - h), h / s if s else 0.0))
    return rows


def top_hit_ssids(snapshot: dict, n: int = 10) -> List[Tuple[str, int]]:
    """The ``n`` SSIDs with the most hits, ties broken alphabetically."""
    tally: Counter = Counter()
    for key, value in snapshot.get("counters", {}).items():
        base, labels = parse_key(key)
        if base == "attacker.hit_ssids" and "ssid" in labels:
            tally[labels["ssid"]] += int(value)
    return sorted(tally.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def pbfb_timeline(snapshot: dict) -> List[Tuple[float, int, int]]:
    """(time, pb_size, fb_size) points of one run's adaptation timeline.

    FB values are matched to PB points by timestamp; a lone PB point
    (should not happen — both series append together) falls back to the
    previous FB value.
    """
    series = snapshot.get("series", {})
    pb = series.get("hunter.pb_size", [])
    fb_at = {t: v for t, v in series.get("hunter.fb_size", [])}
    out: List[Tuple[float, int, int]] = []
    last_fb = 0
    for t, v in pb:
        last_fb = fb_at.get(t, last_fb)
        out.append((float(t), int(v), int(last_fb)))
    return out


def run_events(doc: dict) -> List[Dict[str, object]]:
    """Every retained event of the batch, tagged with its run tag."""
    out: List[Dict[str, object]] = []
    for run in doc.get("runs", []):
        for event in run.get("events", []):
            out.append({"run": run.get("tag", ""), **event})
    return out


def filter_events(
    events: List[Dict[str, object]],
    kind: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Narrow an event list by kind and/or sim-time window.

    ``since``/``until`` bound the half-open window ``[since, until)`` on
    each event's ``time`` field (events without one are kept only when
    no window is given) — the ``repro obs events --kind/--since/--until``
    filters.
    """
    out = []
    for event in events:
        if kind is not None and event.get("kind") != kind:
            continue
        if since is not None or until is not None:
            t = event.get("time")
            if t is None:
                continue
            t = float(t)
            if since is not None and t < since:
                continue
            if until is not None and t >= until:
                continue
        out.append(event)
    return out


def sink_status(doc: dict) -> Dict[str, float]:
    """Event-sink totals across a batch's runs.

    Sums ``events.buffered``/``events.dropped`` over per-run gauges and
    reports the ring cap (``events.cap`` — merged gauges take the max,
    which is the shared configuration value).  Runs from artefacts
    predating the cap gauge simply contribute zeros.
    """
    totals = {
        "events.buffered": 0.0,
        "events.dropped": 0.0,
    }
    for run in doc.get("runs", []):
        gauges = run.get("metrics", {}).get("gauges", {})
        for key in totals:
            totals[key] += float(gauges.get(key, 0))
    merged_gauges = doc.get("merged", {}).get("gauges", {})
    totals["events.cap"] = float(merged_gauges.get("events.cap", 0))
    return totals


def _label_values(gauges: Dict[str, float], name: str, label: str) -> List[float]:
    out = []
    for key, value in gauges.items():
        base, labels = parse_key(key)
        if base == name and label in labels:
            out.append(float(value))
    return out


def shard_breakdown(snapshot: dict) -> Optional[dict]:
    """Sharding summary of a metrics snapshot, or None when the batch
    never ran the sharded engine.

    Ownership spread comes from the per-shard ``shardops.owned_final``
    gauges (absent from golden-canonicalised documents, in which case
    only the workload totals are reported); migration and offer volumes
    come from the ``shardops.``/``shardsim.`` counters.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    if not any(
        k.startswith(("shardsim.", "shardops."))
        for k in list(counters) + list(gauges)
    ):
        return None
    owned = sorted(_label_values(gauges, "shardops.owned_final", "shard"))
    out = {
        "shards": int(gauges.get("shardops.shards", 0)) or None,
        "owned_min": int(owned[0]) if owned else None,
        "owned_median": int(owned[len(owned) // 2]) if owned else None,
        "owned_max": int(owned[-1]) if owned else None,
        "migrations_in": int(counters.get("shardops.migrations_in", 0)),
        "migrations_out": int(counters.get("shardops.migrations_out", 0)),
        "scans": int(counters.get("shardsim.scans", 0)),
        "probes": int(counters.get("shardsim.probes", 0)),
        "offers": int(counters.get("shardsim.offers", 0)),
        "offers_stale": int(counters.get("shardsim.offers_stale", 0)),
        "feedbacks": int(counters.get("shardsim.feedbacks", 0)),
        "hits": int(counters.get("shardsim.hits", 0)),
    }
    return out


#: Serving pipeline stages with a ``serve.<stage>_us`` histogram,
#: in path order.
SERVE_STAGES = ("queue_wait", "select_latency", "apply")


def serve_breakdown(snapshot: dict) -> Optional[dict]:
    """Serving summary of a metrics snapshot, or None when the document
    never saw a :class:`~repro.serve.service.RankingService`.

    Throughput divides the probe count (select-histogram count) by the
    ``serve.stream`` wall timer; stage tail latencies are estimated
    from the fixed-bucket ``serve.*_us`` histograms via
    :func:`~repro.obs.registry.estimate_percentile`.  Documents from
    before the stage histograms existed simply report fewer stages.
    """
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    hists = snapshot.get("histograms", {})
    if not any(
        k.startswith("serve.")
        for k in list(counters) + list(gauges) + list(hists)
    ):
        return None

    def counter_sum(name: str) -> float:
        return sum(
            v for k, v in counters.items() if parse_key(k)[0] == name
        )

    select = hists.get("serve.select_latency_us")
    probes = int(select["count"]) if select else 0
    stream = snapshot.get("timers", {}).get("serve.stream", {})
    wall_s = float(stream.get("total_s", 0.0))
    events = counter_sum("serve.events_total")
    shed = counter_sum("serve.shed_total")
    stages = {}
    for stage in SERVE_STAGES:
        hist = hists.get("serve.%s_us" % stage)
        if hist is None:
            continue
        stages[stage] = {
            "count": int(hist["count"]),
            "p50_us": estimate_percentile(hist, 50),
            "p99_us": estimate_percentile(hist, 99),
        }
    return {
        "events": int(events),
        "probes": probes,
        "decisions": int(counter_sum("serve.decisions_total")),
        "probes_per_s": (
            round(probes / wall_s, 1) if wall_s > 0 and probes else None
        ),
        "shed": int(shed),
        "shed_fraction": round(shed / events, 6) if events else 0.0,
        "events_failed": int(counters.get("serve.events_failed", 0)),
        "queue_depth_peak": int(gauges.get("serve.queue_depth_peak", 0)),
        "stages": stages,
    }
