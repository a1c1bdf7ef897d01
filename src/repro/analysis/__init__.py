"""Attacker-side instrumentation and metric computation.

The :class:`AttackSession` is the ground truth every table and figure is
derived from: it records, per client MAC, the probes observed, the SSIDs
sent (with provenance: WiGLE vs direct-probe origin, which buffer), and
the eventual hit.  Pure functions over a finished session compute the
paper's metrics — hit rate *h*, broadcast hit rate *h_b*, the windowed
real-time rate *h_b^r*, per-client SSID counts, and the Fig. 6 source /
buffer breakdowns.
"""

from repro.analysis.breakdown import BufferBreakdown, SourceBreakdown, breakdown_hits
from repro.analysis.metrics import SessionSummary, summarize
from repro.analysis.observability import (
    load_metrics,
    pbfb_timeline,
    provenance_breakdown,
    top_hit_ssids,
)
from repro.analysis.session import AttackSession, ClientRecord, SentSsid
from repro.analysis.timeseries import WindowStat, windowed_broadcast_hit_rate

__all__ = [
    "load_metrics",
    "pbfb_timeline",
    "provenance_breakdown",
    "top_hit_ssids",
    "AttackSession",
    "ClientRecord",
    "SentSsid",
    "SessionSummary",
    "summarize",
    "WindowStat",
    "windowed_broadcast_hit_rate",
    "SourceBreakdown",
    "BufferBreakdown",
    "breakdown_hits",
]
