"""Per-probe request tracing through the serving path.

The lineage tracer answers *where did this hit come from* in the
simulation; this module answers *where did this probe's microseconds
go* in the serving plane.  When ``REPRO_REQ_TRACE`` is truthy, the
:class:`~repro.serve.service.RankingService` records one span per
pipeline stage for every accepted event:

* ``enqueue``     — ingress: the ``submit`` call offering the event to
  the bounded queue (includes any backpressure wait for queue space);
* ``queue_wait``  — from the ingress offer to the consumer taking the
  event off the queue;
* ``rank``        — the ranking walk (``core.handle``), the paper's hot
  path;
* ``apply``       — decision emission: appending the burst decision and
  running the decision callback.

Spans are plain dicts stamped with ``perf_counter`` readings, kept in a
ring of 200 000 records (the ``max_records`` argument; the
``reqtrace.dropped`` gauge counts evictions).  Decision streams and
differential-parity digests are bit-identical with tracing on or off.
``RankingService.finish`` flushes the ring to ``reqtrace-<pid>.jsonl``
in the telemetry directory; :func:`req_trace_doc` maps spans to Chrome
trace events — an ingress track and a consumer track, with a flow
arrow from each sequence number's ``enqueue`` to its ``rank`` span.
``repro obs serve-trace`` drives the export.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, List, Optional, Union

from repro.obs.records import (
    ChromeTrace,
    Ring,
    read_jsonl,
    rotate,
    telemetry_dir,
    write_jsonl,
)
from repro.util.settings import parse_int_setting, resolve_bool_env

REQ_TRACE_ENV = "REPRO_REQ_TRACE"

DEFAULT_MAX_RECORDS = 200_000
"""Ring capacity: at 4 spans per probe this holds the last ~50k probes."""

REQTRACE_FILE_PREFIX = "reqtrace-"

#: Stage names in pipeline order; only ``enqueue`` runs on the ingress
#: side, the rest on the consumer.
STAGES = ("enqueue", "queue_wait", "rank", "apply")


def resolve_req_trace(value: Optional[bool] = None) -> bool:
    """Is request tracing enabled?  Explicit arg wins over the env."""
    if value is not None:
        return bool(value)
    return resolve_bool_env(REQ_TRACE_ENV, False)


def resolve_req_trace_max(value: Optional[int] = None) -> int:
    """Ring capacity: explicit arg, else 200,000.  A non-integer or
    sub-1 value raises a ValueError naming ``max_records``."""
    if value is None:
        return DEFAULT_MAX_RECORDS
    return parse_int_setting("max_records", value, 1)


class RequestTrace(Ring):
    """Bounded in-memory ring of per-stage spans for one service.

    ``record`` is called from the serving hot path, so it does the
    minimum: build one plain dict and append it to the ring.
    """

    def __init__(self, max_records: Optional[int] = None):
        super().__init__(resolve_req_trace_max(max_records))

    def record(
        self,
        stage: str,
        seq: int,
        start: float,
        dur: float,
        **attrs: object,
    ) -> None:
        """Append one stage span (``start``/``dur`` in perf-counter s)."""
        rec: Dict[str, object] = {
            "stage": stage,
            "seq": int(seq),
            "start": float(start),
            "dur": float(dur),
        }
        for key, value in attrs.items():
            if value is not None:
                rec[key] = value
        self.append(rec)

    def flush(
        self, base: Optional[Union[str, pathlib.Path]] = None
    ) -> pathlib.Path:
        """Write the retained spans to ``reqtrace-<pid>.jsonl``, rotating
        an earlier run's file by the same pid away first."""
        path = telemetry_dir(base) / (
            "%s%d.jsonl" % (REQTRACE_FILE_PREFIX, os.getpid())
        )
        rotate(path)
        write_jsonl(path, self._ring)
        return path


def maybe_request_trace(
    enabled: Optional[bool] = None,
    max_records: Optional[int] = None,
) -> Optional[RequestTrace]:
    """A :class:`RequestTrace` when tracing is on, else ``None`` — the
    single gate the service constructor uses."""
    if not resolve_req_trace(enabled):
        return None
    return RequestTrace(max_records)


# -- readers ----------------------------------------------------------------


def read_reqtrace_records(path: Union[str, pathlib.Path]) -> List[dict]:
    """All spans in one reqtrace file."""
    return read_jsonl(path, "stage", "seq", "start")


def load_reqtrace_dir(
    directory: Union[str, pathlib.Path],
) -> List[dict]:
    """Every span in every ``reqtrace-*.jsonl`` under ``directory``.

    Files are read in sorted-name order; spans keep file order (the
    exporter sorts by timestamp anyway).
    """
    directory = pathlib.Path(directory)
    out: List[dict] = []
    for path in sorted(directory.glob(REQTRACE_FILE_PREFIX + "*.jsonl")):
        out.extend(read_reqtrace_records(path))
    return out


# -- Chrome trace-event export ----------------------------------------------


INGRESS_TID = 0
"""Track of the ingress ``enqueue`` spans."""
CONSUMER_TID = 1
"""Track of the consumer's ``queue_wait``, ``rank`` and ``apply`` spans."""


def req_trace_doc(records: List[dict]) -> dict:
    """Chrome trace-event JSON for a list of request spans.

    One span per record on the ingress track (tid 0) or the consumer
    track (tid 1); a flow arrow per sequence number from the end of its
    ingress ``enqueue`` span to the start of its ``rank`` span.
    """
    if not records:
        raise ValueError("no request spans to export")
    trace = ChromeTrace("repro-serve", pid=0)
    ingress = trace.track("ingress", tid=INGRESS_TID)
    consumer = trace.track("consumer", tid=CONSUMER_TID)
    t0 = min(float(r["start"]) for r in records)

    def ts(start: float) -> float:
        return round((start - t0) * 1e6, 1)

    enqueue_by_seq: Dict[int, dict] = {}
    rank_by_seq: Dict[int, dict] = {}
    for rec in records:
        seq = int(rec["seq"])
        stage = rec["stage"]
        if stage == "enqueue":
            enqueue_by_seq[seq] = rec
        elif stage == "rank":
            rank_by_seq[seq] = rec
        args: Dict[str, object] = {"seq": seq}
        for key in ("mac", "etype", "kind"):
            if rec.get(key) is not None:
                args[key] = rec[key]
        trace.span(
            ingress if stage == "enqueue" else consumer,
            ts(float(rec["start"])),
            round(float(rec.get("dur", 0.0)) * 1e6, 1),
            stage,
            "serve",
            args,
        )
    for seq in sorted(set(enqueue_by_seq) & set(rank_by_seq)):
        enq, rank = enqueue_by_seq[seq], rank_by_seq[seq]
        trace.flow(
            "probe",
            "serve.flow",
            (ingress, ts(float(enq["start"]) + float(enq.get("dur", 0.0)))),
            (consumer, ts(float(rank["start"]))),
        )
    return trace.doc(by_time=True)
