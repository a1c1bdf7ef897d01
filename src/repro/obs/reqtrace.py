"""Per-probe request tracing through the serving path.

PR 5's lineage tracer answered *where did this hit come from* in the
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

**Observe-only, bounded.**  Spans land in an in-memory ring
(:class:`RequestTrace`, capacity ``REPRO_REQ_TRACE_MAX``, default
200 000 records) as plain dicts stamped with ``perf_counter`` readings.
Nothing here draws from an RNG stream or schedules work, so decision
streams and differential-parity digests are bit-identical with tracing
on or off — the same contract the lineage and epoch tracers honour.
When the ring is full the *oldest* spans are dropped and counted
(``reqtrace.dropped`` gauge): under overload you keep the most recent
window, which is the one you are debugging.

**Files and export.**  ``RankingService.finish`` flushes the ring to
``<artifact_dir>/telemetry/reqtrace-<pid>.jsonl`` (previous file
rotated to ``.old``, like heartbeats).  :func:`req_trace_doc` folds one
or more such files into Chrome trace-event JSON — an ingress track and
a consumer track, with flow arrows following each sequence number from
its ingress enqueue to its ``rank`` span — satisfying the same
:func:`~repro.obs.lineage.validate_chrome_trace` contract as the
lineage and epoch exporters.  ``repro obs serve-trace`` and ``repro
serve bench --req-trace`` drive the export.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import deque
from typing import Dict, List, Optional, Union

from repro.obs.artifacts import artifact_dir
from repro.util.settings import parse_int_setting, resolve_bool_env, resolve_int_env

REQ_TRACE_ENV = "REPRO_REQ_TRACE"
REQ_TRACE_MAX_ENV = "REPRO_REQ_TRACE_MAX"

DEFAULT_MAX_RECORDS = 200_000
"""Ring capacity: at 4 spans per probe this holds the last ~50k probes."""

REQTRACE_FILE_PREFIX = "reqtrace-"
TELEMETRY_SUBDIR = "telemetry"

#: Stage names in pipeline order; only ``enqueue`` runs on the ingress
#: side, the rest on the consumer.
STAGES = ("enqueue", "queue_wait", "rank", "apply")


def resolve_req_trace(value: Optional[bool] = None) -> bool:
    """Is request tracing enabled?  Explicit arg wins over the env."""
    if value is not None:
        return bool(value)
    return resolve_bool_env(REQ_TRACE_ENV, False)


def resolve_req_trace_max(value: Optional[int] = None) -> int:
    """Ring capacity: explicit arg, else ``REPRO_REQ_TRACE_MAX``, else
    200,000.  A non-integer or sub-1 value raises a ValueError naming
    its source."""
    if value is not None:
        return parse_int_setting("max_records", value, 1)
    return resolve_int_env(REQ_TRACE_MAX_ENV, DEFAULT_MAX_RECORDS, 1)


def reqtrace_dir(
    base: Optional[Union[str, pathlib.Path]] = None,
) -> pathlib.Path:
    """Directory request-trace files live in (same as heartbeats)."""
    root = pathlib.Path(base) if base is not None else artifact_dir()
    return root / TELEMETRY_SUBDIR


class RequestTrace:
    """Bounded in-memory ring of per-stage spans for one service.

    ``record`` is called from the serving hot path, so it does the
    minimum: build one plain dict, append to a ``deque`` with
    ``maxlen``.  Eviction of the oldest record is counted in
    ``dropped`` so the export can say how much history was lost.
    """

    def __init__(self, max_records: Optional[int] = None):
        self.max_records = resolve_req_trace_max(max_records)
        self._records: deque = deque(maxlen=self.max_records)
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    def record(
        self,
        stage: str,
        seq: int,
        start: float,
        dur: float,
        **attrs: object,
    ) -> None:
        """Append one stage span (``start``/``dur`` in perf-counter s)."""
        if len(self._records) == self.max_records:
            self.dropped += 1
        rec: Dict[str, object] = {
            "stage": stage,
            "seq": int(seq),
            "start": float(start),
            "dur": float(dur),
        }
        for key, value in attrs.items():
            if value is not None:
                rec[key] = value
        self._records.append(rec)

    def records(self) -> List[dict]:
        """The retained spans, oldest first."""
        return list(self._records)

    def flush(
        self, base: Optional[Union[str, pathlib.Path]] = None
    ) -> pathlib.Path:
        """Write the retained spans to ``reqtrace-<pid>.jsonl``.

        The previous file (an earlier run by the same pid) is rotated to
        ``.old`` first, mirroring heartbeat rotation, so readers only
        ever see the current run.
        """
        directory = reqtrace_dir(base)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / ("%s%d.jsonl" % (REQTRACE_FILE_PREFIX, os.getpid()))
        if path.exists():
            try:
                path.replace(path.with_name(path.name + ".old"))
            except OSError:
                pass
        with open(path, "w") as fh:
            for rec in self._records:
                fh.write(json.dumps(rec) + "\n")
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
    """All spans in one reqtrace file (torn/malformed lines skipped)."""
    out: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue  # torn final line of a killed service
            if (
                isinstance(rec, dict)
                and "stage" in rec
                and "seq" in rec
                and "start" in rec
            ):
                out.append(rec)
    return out


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

    One ``X`` (complete) event per span on the ingress track (tid 0) or
    the consumer track (tid 1); an ``s``/``f`` flow-arrow pair per
    sequence number connecting the ingress ``enqueue`` span to its
    ``rank`` span.  Passes
    :func:`~repro.obs.lineage.validate_chrome_trace`; open in Perfetto /
    ``chrome://tracing``.
    """
    if not records:
        raise ValueError("no request spans to export")
    events: List[Dict[str, object]] = [
        {
            "ph": "M",
            "ts": 0,
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro-serve"},
        },
        {
            "ph": "M",
            "ts": 0,
            "pid": 0,
            "tid": INGRESS_TID,
            "name": "thread_name",
            "args": {"name": "ingress"},
        },
        {
            "ph": "M",
            "ts": 0,
            "pid": 0,
            "tid": CONSUMER_TID,
            "name": "thread_name",
            "args": {"name": "consumer"},
        },
    ]
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
        events.append(
            {
                "ph": "X",
                "ts": ts(float(rec["start"])),
                "dur": round(float(rec.get("dur", 0.0)) * 1e6, 1),
                "pid": 0,
                "tid": INGRESS_TID if stage == "enqueue" else CONSUMER_TID,
                "name": stage,
                "cat": "serve",
                "args": args,
            }
        )
    # Flow arrows: ingress enqueue -> that sequence's rank span.
    flow_id = 0
    for seq in sorted(set(enqueue_by_seq) & set(rank_by_seq)):
        enq, rank = enqueue_by_seq[seq], rank_by_seq[seq]
        flow_id += 1
        events.append(
            {
                "ph": "s",
                "ts": ts(float(enq["start"]) + float(enq.get("dur", 0.0))),
                "pid": 0,
                "tid": INGRESS_TID,
                "name": "probe",
                "cat": "serve.flow",
                "id": flow_id,
            }
        )
        events.append(
            {
                "ph": "f",
                "bp": "e",
                "ts": ts(float(rank["start"])),
                "pid": 0,
                "tid": CONSUMER_TID,
                "name": "probe",
                "cat": "serve.flow",
                "id": flow_id,
            }
        )
    events.sort(key=lambda e: (e["ts"], e["tid"], e["ph"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_req_trace(
    records: List[dict], path: Union[str, pathlib.Path]
) -> pathlib.Path:
    """Export spans as a Chrome trace file; returns the path."""
    doc = req_trace_doc(records)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path
