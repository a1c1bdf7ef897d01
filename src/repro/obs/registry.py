"""The metrics registry: counters, gauges, histograms, series, timers.

One :class:`MetricsRegistry` lives on every
:class:`~repro.sim.simulation.Simulation`; entities write into it from
hot paths (cheap dict updates, no locks — a registry is process-local)
and the parallel executor ships each worker's snapshot home as a plain
dict inside :class:`~repro.experiments.parallel.RunSummary`.

Design constraints, in order:

* **Determinism.**  Everything outside the ``timers`` section is a pure
  function of the simulated run, so a merged export must be bit-identical
  at any worker count.  Exports sort every key; merging is performed by
  the parent in spec order, so float accumulation order never depends on
  scheduling.  Wall-clock measurements are quarantined in ``timers``.
* **Merge semantics.**  Counters and timers sum, gauges take the max
  (the only order-independent choice), histograms with identical bounds
  add bucket-wise, series concatenate and sort by (time, value).
* **Plain-dict snapshots.**  ``to_dict`` / ``from_dict`` round-trip
  through JSON so snapshots survive the process boundary and land in the
  ``metrics.json`` artefact unchanged.

Labelled names are encoded as ``name{"key":"value",...}`` with the label
object serialised as canonical JSON — unambiguous to parse back no
matter what characters an SSID contains.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

METRICS_SCHEMA = "repro.metrics/v1"

DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 20, 40, 80, 160, 320)
"""Default histogram bucket upper bounds (an overflow bucket is implicit)."""


def metric_key(name: str, labels: Optional[Dict[str, object]] = None) -> str:
    """Canonical flat key for a (name, labels) pair."""
    if not labels:
        return name
    body = json.dumps(
        {str(k): str(v) for k, v in labels.items()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return f"{name}{body}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Invert :func:`metric_key`: ``name{...}`` back to (name, labels)."""
    brace = key.find("{")
    if brace < 0:
        return key, {}
    return key[:brace], json.loads(key[brace:])


class FixedHistogram:
    """Histogram over fixed, pre-declared bucket bounds.

    ``bounds`` are inclusive upper edges; one extra overflow bucket
    catches everything beyond the last bound.  Fixed bounds are what
    make worker-side histograms mergeable without re-binning.
    """

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and sorted")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        idx = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.total += value
        self.count += 1

    def merge(self, other: "FixedHistogram") -> None:
        """Bucket-wise sum; bounds must match exactly."""
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bounds: %r vs %r"
                % (self.bounds, other.bounds)
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.count += other.count

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FixedHistogram":
        hist = cls(doc["bounds"])
        counts = list(doc["counts"])
        if len(counts) != len(hist.counts):
            raise ValueError("histogram counts do not match bounds")
        hist.counts = counts
        hist.total = float(doc.get("sum", 0.0))
        hist.count = int(doc.get("count", sum(counts)))
        return hist


def estimate_percentile(hist, q: float) -> Optional[float]:
    """Estimate the ``q``-th percentile (0–100) of a fixed-bucket histogram.

    ``hist`` is a :class:`FixedHistogram` or its :meth:`~FixedHistogram.to_dict`
    snapshot.  Returns ``None`` for an empty histogram.  Within the bucket
    that owns the target rank the estimate interpolates linearly between the
    bucket's edges; the first bucket is anchored at 0.0 (observations are
    assumed non-negative, which holds for every ``serve.*_us`` stage
    histogram this estimator serves).  Mass in the implicit overflow bucket
    has no upper edge, so the estimate saturates at the last finite bound —
    a deliberate under-estimate that still trips any budget set below it.
    """
    if isinstance(hist, FixedHistogram):
        bounds, counts, total = hist.bounds, hist.counts, hist.count
    else:
        bounds = tuple(float(b) for b in hist["bounds"])
        counts = list(hist["counts"])
        total = int(hist.get("count", sum(counts)))
    if total <= 0:
        return None
    q = min(100.0, max(0.0, float(q)))
    target = q / 100.0 * total
    cum = 0
    for i, c in enumerate(counts):
        if c and cum + c >= target:
            if i >= len(bounds):
                return float(bounds[-1])
            lower = bounds[i - 1] if i > 0 else 0.0
            fraction = (target - cum) / c
            return float(lower + fraction * (bounds[i] - lower))
        cum += c
    return float(bounds[-1])


class MetricsRegistry:
    """Process-local metric store with deterministic export and merge."""

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, FixedHistogram] = {}
        self._series: Dict[str, List[Tuple[float, float]]] = {}
        self._timers: Dict[str, Dict[str, float]] = {}

    # -- writers ---------------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels: object) -> None:
        """Add ``value`` to a (monotonic) counter."""
        key = metric_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def inc_key(self, key: str, value: float = 1) -> None:
        """:meth:`inc` for a pre-computed :func:`metric_key`.

        Hot paths that hit the same labelled counter thousands of times
        per simulated second cache the flat key once instead of paying
        ``json.dumps`` on every increment.  Semantically identical to
        :meth:`inc` with the same (name, labels)."""
        self._counters[key] = self._counters.get(key, 0) + value

    def gauge_set(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge to its latest value."""
        self._gauges[metric_key(name, labels)] = value

    def gauge_max(self, name: str, value: float, **labels: object) -> None:
        """Raise a gauge to ``value`` if it is a new high-water mark."""
        key = metric_key(name, labels)
        if key not in self._gauges or value > self._gauges[key]:
            self._gauges[key] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> None:
        """Record one histogram observation."""
        key = metric_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = FixedHistogram(buckets)
        hist.observe(value)

    def series_append(
        self, name: str, time: float, value: float, **labels: object
    ) -> None:
        """Append one (time, value) point to a time series."""
        self._series.setdefault(metric_key(name, labels), []).append(
            (float(time), float(value))
        )

    def timer_add(self, name: str, seconds: float, **labels: object) -> None:
        """Fold one externally-measured wall-time sample into ``timers``."""
        entry = self._timers.setdefault(
            metric_key(name, labels), {"count": 0, "total_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += seconds

    # -- readers ---------------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter (0 when never incremented)."""
        return self._counters.get(metric_key(name, labels), 0)

    def histogram(
        self, name: str, **labels: object
    ) -> Optional[FixedHistogram]:
        """The live histogram under one key (``None`` when never observed)."""
        return self._histograms.get(metric_key(name, labels))

    def counters_named(self, name: str) -> Dict[str, float]:
        """All counters of one base name, keyed by their flat label key."""
        return {
            k: v
            for k, v in self._counters.items()
            if parse_key(k)[0] == name
        }

    # -- snapshot / merge -------------------------------------------------------

    def to_dict(self) -> dict:
        """Deterministic plain-dict snapshot (JSON-serialisable)."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].to_dict()
                for k in sorted(self._histograms)
            },
            "series": {
                k: [[t, v] for t, v in self._series[k]]
                for k in sorted(self._series)
            },
            "timers": {
                k: dict(self._timers[k]) for k in sorted(self._timers)
            },
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_dict` snapshot."""
        reg = cls()
        reg._counters = {k: v for k, v in doc.get("counters", {}).items()}
        reg._gauges = {k: v for k, v in doc.get("gauges", {}).items()}
        reg._histograms = {
            k: FixedHistogram.from_dict(v)
            for k, v in doc.get("histograms", {}).items()
        }
        reg._series = {
            k: [(float(t), float(v)) for t, v in points]
            for k, points in doc.get("series", {}).items()
        }
        reg._timers = {
            k: {"count": v.get("count", 0), "total_s": v.get("total_s", 0.0)}
            for k, v in doc.get("timers", {}).items()
        }
        return reg

    def load_snapshot(self, doc: dict) -> "MetricsRegistry":
        """Replace this registry's state with a :meth:`to_dict` snapshot.

        In-place so every holder of a reference to *this* registry (the
        sim, the instrumented subsystems) sees the restored state —
        that's what checkpoint recovery needs, where ``from_dict`` would
        strand the live references on the pre-crash object.
        """
        restored = MetricsRegistry.from_dict(doc)
        self._counters = restored._counters
        self._gauges = restored._gauges
        self._histograms = restored._histograms
        self._series = restored._series
        self._timers = restored._timers
        return self

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (see module doc for rules)."""
        for k, v in other._counters.items():
            self._counters[k] = self._counters.get(k, 0) + v
        for k, v in other._gauges.items():
            if k not in self._gauges or v > self._gauges[k]:
                self._gauges[k] = v
        for k, hist in other._histograms.items():
            mine = self._histograms.get(k)
            if mine is None:
                self._histograms[k] = FixedHistogram.from_dict(hist.to_dict())
            else:
                mine.merge(hist)
        for k, points in other._series.items():
            merged = self._series.setdefault(k, [])
            merged.extend(points)
            merged.sort()
        for k, t in other._timers.items():
            mine = self._timers.setdefault(k, {"count": 0, "total_s": 0.0})
            mine["count"] += t["count"]
            mine["total_s"] += t["total_s"]
        return self


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge worker snapshot dicts (in the given order) into one export.

    The parallel executor calls this with snapshots in *spec order*, so
    the merged result is independent of which worker produced which
    snapshot when.
    """
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge(MetricsRegistry.from_dict(snap))
    return merged.to_dict()


def validate_metrics_doc(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid metrics artefact.

    This is the schema contract CI's bench-smoke job enforces on
    ``benchmarks/out/metrics.json``.
    """
    if doc.get("schema") != METRICS_SCHEMA:
        raise ValueError(
            "bad schema marker: %r (want %r)" % (doc.get("schema"), METRICS_SCHEMA)
        )
    for field in ("workers", "run_count", "merged", "runs"):
        if field not in doc:
            raise ValueError("metrics artefact missing %r" % field)
    if len(doc["runs"]) != doc["run_count"]:
        raise ValueError(
            "run_count %r does not match %d run entries"
            % (doc["run_count"], len(doc["runs"]))
        )
    _validate_snapshot(doc["merged"], where="merged")
    for i, run in enumerate(doc["runs"]):
        for field in ("tag", "attacker", "seed", "metrics"):
            if field not in run:
                raise ValueError("run %d missing %r" % (i, field))
        _validate_snapshot(run["metrics"], where=f"runs[{i}].metrics")


def _validate_snapshot(snap: dict, where: str) -> None:
    for section in ("counters", "gauges", "histograms", "series", "timers"):
        if section not in snap:
            raise ValueError("%s missing section %r" % (where, section))
    for key, value in snap["counters"].items():
        if not isinstance(key, str) or not isinstance(value, (int, float)):
            raise ValueError("%s has a malformed counter %r" % (where, key))
    for key, hist in snap["histograms"].items():
        FixedHistogram.from_dict(hist)  # raises on malformed shapes
