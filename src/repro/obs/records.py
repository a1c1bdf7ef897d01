"""Record plumbing shared by every recorder.

The recorders (the event sink, lineage, epoch spans, request spans,
heartbeats and profiles) differ in *what* they record, not in how
records are kept, stored and exported.  This module owns the how,
once:

* :class:`Ring` — a bounded in-memory store; when it is full the oldest
  record is evicted and counted in ``dropped``, so a long run keeps the
  most recent window and says how much history it lost;
* :func:`telemetry_dir` — ``<artifact_dir>/telemetry``, home of every
  live file (heartbeats, epoch spans, request spans, ops events);
* :func:`rotate` — moves a previous run's file to ``<name>.old``, which
  no ``*.jsonl`` glob matches, so readers only see the current run;
* :func:`write_jsonl` / :func:`read_jsonl` — one JSON object per line,
  one writer per file; the reader skips blank, torn and malformed
  lines (a writer killed mid-line) and records lacking required keys;
* :func:`write_json` — one JSON document per file;
* :class:`ChromeTrace` / :func:`validate_chrome_trace` — Chrome
  trace-event documents (Perfetto, ``chrome://tracing``): process and
  track metadata, ``X`` spans and ``s``/``f`` flow arrows.

Nothing here draws from an RNG stream, schedules an event or touches
the metrics registry, which is what lets every recorder promise that
switching it on leaves results unchanged.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.obs.artifacts import artifact_dir

PathLike = Union[str, pathlib.Path]

TELEMETRY_SUBDIR = "telemetry"

TRACE_EVENT_REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")
"""Keys every exported trace event must carry."""


class Ring:
    """Bounded, append-only record store: the oldest record is evicted
    first and counted in ``dropped``.  ``enabled`` is the recorder's
    on/off switch; the ring itself never reads it."""

    def __init__(self, max_records: int, enabled: bool = True):
        if max_records < 1:
            raise ValueError("ring capacity must be >= 1, got %r" % max_records)
        self.enabled = bool(enabled)
        self.max_records = max_records
        self._ring: deque = deque(maxlen=max_records)
        self.dropped = 0

    def append(self, record: object) -> None:
        if len(self._ring) == self.max_records:
            self.dropped += 1
        self._ring.append(record)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator:
        return iter(self._ring)

    def records(self) -> list:
        """The retained records, oldest first."""
        return list(self._ring)


def telemetry_dir(base: Optional[PathLike] = None) -> pathlib.Path:
    """``<base>/telemetry``; ``base`` defaults to the artefact directory."""
    root = pathlib.Path(base) if base is not None else artifact_dir()
    return root / TELEMETRY_SUBDIR


def rotate(path: pathlib.Path) -> None:
    """Start ``path`` afresh: create its directory and move a previous
    run's file to ``<name>.old``.  A missing file is nothing to rotate;
    any other error propagates, as the write that follows would fail
    the same way."""
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        path.replace(path.with_name(path.name + ".old"))
    except FileNotFoundError:
        pass


def write_jsonl(path: PathLike, records: Iterable[dict], mode: str = "a") -> None:
    """Write each record as one JSON line: appended, or ``mode="w"`` to
    replace the file.  The directory must exist (see :func:`rotate`)."""
    with open(path, mode) as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def read_jsonl(path: PathLike, *required: str) -> List[dict]:
    """Every JSON object in ``path`` that carries all ``required`` keys.

    Blank lines, torn or malformed lines and records of another shape
    are skipped; a missing file reads as empty.
    """
    out: List[dict] = []
    try:
        fh = open(path)
    except FileNotFoundError:
        return out
    with fh:
        for line in fh:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and all(key in rec for key in required):
                out.append(rec)
    return out


def write_json(
    path: PathLike, doc: object, indent: Optional[int] = None
) -> pathlib.Path:
    """Write one JSON document (sorted keys, trailing newline), creating
    the directory; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=indent, sort_keys=True) + "\n")
    return path


Endpoint = Tuple[int, float]
"""One end of a flow arrow: ``(tid, ts)``."""


class ChromeTrace:
    """Builder of one Chrome trace-event document for one process.

    Callers decide the mapping — which record goes on which track, at
    what timestamp (microseconds), with which flow; the builder owns
    the event shapes.
    """

    def __init__(self, process_name: str, pid: int = 1):
        self.pid = pid
        self.events: List[dict] = []
        self._tids: Dict[str, int] = {}
        self._flows = 0
        self._meta(0, "process_name", process_name)

    def _meta(self, tid: int, kind: str, name: str) -> None:
        self.events.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": self.pid,
                "tid": tid,
                "name": kind,
                "args": {"name": name},
            }
        )

    def track(self, name: str, tid: Optional[int] = None) -> int:
        """The tid of track ``name``, adding its metadata on first use.
        Tracks without an explicit ``tid`` are numbered 1, 2, ... in
        order of first use."""
        found = self._tids.get(name)
        if found is None:
            found = len(self._tids) + 1 if tid is None else tid
            self._tids[name] = found
            self._meta(found, "thread_name", name)
        return found

    def span(
        self, tid: int, ts: float, dur: float, name: str, cat: str, args: dict
    ) -> None:
        """One complete (``X``) event."""
        self.events.append(
            {
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": self.pid,
                "tid": tid,
                "name": name,
                "cat": cat,
                "args": args,
            }
        )

    def flow(
        self,
        name: str,
        cat: str,
        src: Endpoint,
        dst: Endpoint,
        flow_id: Optional[int] = None,
        src_args: Optional[dict] = None,
        dst_args: Optional[dict] = None,
    ) -> None:
        """One ``s``/``f`` arrow from ``src`` to ``dst``; ids count from
        1 unless the caller names one."""
        if flow_id is None:
            self._flows += 1
            flow_id = self._flows
        for ph, (tid, ts), args in (("s", src, src_args), ("f", dst, dst_args)):
            event = {
                "ph": ph,
                "ts": ts,
                "pid": self.pid,
                "tid": tid,
                "id": flow_id,
                "name": name,
                "cat": cat,
            }
            if ph == "f":
                event["bp"] = "e"
            if args is not None:
                event["args"] = args
            self.events.append(event)

    def doc(self, by_time: bool = False, **fields: object) -> dict:
        """The finished document; ``by_time`` orders events by
        ``(ts, tid, ph)``, keeping insertion order among ties."""
        if by_time:
            self.events.sort(key=lambda e: (e["ts"], e["tid"], e["ph"]))
        return dict(fields, traceEvents=self.events, displayTimeUnit="ms")


def validate_chrome_trace(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid trace-event file."""
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace document has no traceEvents list")
    for i, event in enumerate(events):
        for key in TRACE_EVENT_REQUIRED_KEYS:
            if key not in event:
                raise ValueError(
                    "traceEvents[%d] missing required key %r" % (i, key)
                )
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError("traceEvents[%d] complete event lacks dur" % i)
