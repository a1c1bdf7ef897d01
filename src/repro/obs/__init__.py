"""Observability: metrics registry, span tracing, event export.

The package gives every run three cheap, always-on artefact streams —
a :class:`MetricsRegistry` of counters/gauges/histograms, a capped
:class:`EventSink` of structured events, and span/timer context
managers — plus the single artefact-directory resolution rule shared by
every artefact writer.  :mod:`~repro.obs.records` is the
record plumbing every recorder shares: the bounded ring, the telemetry
directory, ``.old`` rotation, the JSONL writer and reader, the JSON
document writer and the Chrome trace-event builder.

On top of those sit the opt-in deep-observability layers (see
OBSERVABILITY.md): causal :mod:`~repro.obs.lineage` tracing with Chrome
trace-event export, the per-handler :mod:`~repro.obs.profiler`, live
executor heartbeats and the fleet aggregator in
:mod:`~repro.obs.telemetry`, per-epoch barrier spans for the sharded
engine in :mod:`~repro.obs.epochs`, per-probe request tracing through
the serving path in :mod:`~repro.obs.reqtrace` with the declared-SLO
gate in :mod:`~repro.obs.slo`, and the Prometheus text exposition in
:mod:`~repro.obs.prom`.  Performance is gated outside the package, by
perfbench (``benchmarks/perfbench_counters.py``).
"""

from repro.obs.artifacts import (
    ARTIFACT_DIR_ENV,
    DEFAULT_ARTIFACT_DIR,
    artifact_dir,
    artifact_path,
    ensure_artifact_dir,
)
from repro.obs.events import DEFAULT_MAX_EVENTS, EventSink
from repro.obs.records import (
    ChromeTrace,
    Ring,
    read_jsonl,
    telemetry_dir,
    validate_chrome_trace,
    write_json,
    write_jsonl,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    FixedHistogram,
    MetricsRegistry,
    estimate_percentile,
    merge_snapshots,
    metric_key,
    parse_key,
    validate_metrics_doc,
)
from repro.obs.reqtrace import (
    REQ_TRACE_ENV,
    RequestTrace,
    load_reqtrace_dir,
    maybe_request_trace,
    read_reqtrace_records,
    req_trace_doc,
    resolve_req_trace,
)
from repro.obs.slo import (
    SLO_SCHEMA,
    ServeSlo,
    default_slo,
    evaluate_slo,
    render_slo_report,
)
from repro.obs.epochs import (
    EPOCH_TRACE_ENV,
    EpochTracer,
    epoch_trace_doc,
    load_epoch_dir,
    maybe_epoch_tracer,
    read_epoch_records,
    resolve_epoch_trace,
)
from repro.obs.lineage import (
    LINEAGE_ENV,
    LineageTrace,
    chrome_trace_doc,
    hunt_story,
    load_chrome_trace,
)
from repro.obs.profiler import (
    PROFILE_ENV,
    PROFILE_SCHEMA,
    SimProfiler,
    load_profile,
    merge_profiles,
    profile_collapsed,
    render_hot_table,
    write_collapsed,
)
from repro.obs.prom import (
    PROM_ARTIFACT,
    parse_prom_text,
    prom_lines,
    render_prom,
    validate_prom_text,
    write_prom,
)
from repro.obs.spans import NullSpan, Span, maybe_span, span, timer
from repro.obs.telemetry import (
    HEARTBEAT_ENV,
    HeartbeatWriter,
    fleet_snapshot,
    maybe_heartbeat,
    render_top,
    render_watch,
    watch_snapshot,
)

__all__ = [
    "ARTIFACT_DIR_ENV",
    "DEFAULT_ARTIFACT_DIR",
    "artifact_dir",
    "artifact_path",
    "ensure_artifact_dir",
    "DEFAULT_MAX_EVENTS",
    "EventSink",
    "ChromeTrace",
    "Ring",
    "read_jsonl",
    "telemetry_dir",
    "validate_chrome_trace",
    "write_json",
    "write_jsonl",
    "DEFAULT_BUCKETS",
    "METRICS_SCHEMA",
    "FixedHistogram",
    "MetricsRegistry",
    "estimate_percentile",
    "merge_snapshots",
    "metric_key",
    "parse_key",
    "validate_metrics_doc",
    "REQ_TRACE_ENV",
    "RequestTrace",
    "load_reqtrace_dir",
    "maybe_request_trace",
    "read_reqtrace_records",
    "req_trace_doc",
    "resolve_req_trace",
    "SLO_SCHEMA",
    "ServeSlo",
    "default_slo",
    "evaluate_slo",
    "render_slo_report",
    "NullSpan",
    "Span",
    "maybe_span",
    "span",
    "timer",
    "LINEAGE_ENV",
    "LineageTrace",
    "chrome_trace_doc",
    "hunt_story",
    "load_chrome_trace",
    "PROFILE_ENV",
    "PROFILE_SCHEMA",
    "SimProfiler",
    "load_profile",
    "merge_profiles",
    "profile_collapsed",
    "render_hot_table",
    "write_collapsed",
    "EPOCH_TRACE_ENV",
    "EpochTracer",
    "epoch_trace_doc",
    "load_epoch_dir",
    "maybe_epoch_tracer",
    "read_epoch_records",
    "resolve_epoch_trace",
    "PROM_ARTIFACT",
    "parse_prom_text",
    "prom_lines",
    "render_prom",
    "validate_prom_text",
    "write_prom",
    "HEARTBEAT_ENV",
    "HeartbeatWriter",
    "fleet_snapshot",
    "maybe_heartbeat",
    "render_top",
    "render_watch",
    "watch_snapshot",
]
