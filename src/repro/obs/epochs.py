"""Per-epoch barrier spans for the district-sharded engine.

The sharded engine's unit of progress is the *epoch*: every shard runs
phase A (walkers), hits the X1 barrier, runs phase B (sensors), hits
X2, repeat.  End-of-run ``shardops.*`` gauges say how much total work
each shard did; nothing says *which shard was the straggler at which
epoch* or how handoff volume skewed across the stripes.  This module
records exactly that.

With ``REPRO_EPOCH_TRACE`` set (truthy), every
:class:`~repro.sim.shards.shard.ShardRuntime` owns an
:class:`EpochTracer` that appends one JSON record per phase to
``<artifact_dir>/telemetry/epochs-<k>.jsonl``:

* wall-clock start/duration of the phase (``wall``/``wall_s``);
* time spent waiting at the barrier before the phase (``barrier_s`` —
  in process mode that is genuine pipe-wait, in inline mode it is the
  time the driver spent stepping the *other* shards, which is the same
  straggler signal);
* handed-in record counts by kind (``in``) and handed-out record
  counts and bytes by destination shard (``out``/``out_bytes``).

Files are append-only with one writer each, exactly like the heartbeat
files — the live aggregator (``repro obs top``) only reads.

Determinism contract: the tracer only observes.  It never draws from an
RNG stream, never touches the workload metrics, never schedules an
event — golden digests are bit-identical with tracing on or off
(asserted in ``tests/test_shard_golden.py``).

Exports: :func:`epoch_trace_doc` renders the records as Chrome
trace-event JSON with one track per shard, a span per phase, a span per
barrier wait, and flow arrows for every cross-shard handoff batch — an
epoch-barrier stall reads as one visibly long span in Perfetto.  That
is the ``repro obs shard-trace`` CLI.
"""

from __future__ import annotations

import json
import os
import pathlib
import time as _time
from typing import Callable, Dict, List, Optional, Union

from repro.obs.artifacts import artifact_dir
from repro.util.settings import parse_bool_setting

EPOCH_TRACE_ENV = "REPRO_EPOCH_TRACE"

EPOCH_FILE_PREFIX = "epochs-"
TELEMETRY_SUBDIR = "telemetry"

#: Phases in barrier order within one epoch.
PHASES = ("a", "b")

#: Auxiliary record kinds sharing the epoch files (not barrier phases):
#: ``"c"`` marks a checkpoint write at an epoch barrier.
AUX_PHASES = ("c",)


def resolve_epoch_trace(value: Optional[str] = None) -> bool:
    """Whether per-epoch barrier tracing is on (``REPRO_EPOCH_TRACE``)."""
    if value is None:
        value = os.environ.get(EPOCH_TRACE_ENV, "")
    return parse_bool_setting(EPOCH_TRACE_ENV, value)


def epoch_trace_dir(
    base: Optional[Union[str, pathlib.Path]] = None,
) -> pathlib.Path:
    """Directory the epoch files live in (shared with heartbeats)."""
    root = pathlib.Path(base) if base is not None else artifact_dir()
    return root / TELEMETRY_SUBDIR


def epoch_file(
    shard_id: int, base: Optional[Union[str, pathlib.Path]] = None
) -> pathlib.Path:
    """Path of one shard's epoch-span file."""
    return epoch_trace_dir(base) / ("%s%d.jsonl" % (EPOCH_FILE_PREFIX, shard_id))


def _record_bytes(records) -> int:
    """Rough payload size of a handoff batch (repr bytes — cheap, stable
    enough for skew detection; only computed when tracing is on)."""
    return sum(len(repr(rec)) for rec in records)


class EpochTracer:
    """Append-only per-shard epoch recorder (one instance per shard).

    The shard calls :meth:`record` once per phase, after the phase ran
    and its outboxes are assembled.  The first record rotates any
    leftover file from a previous run to ``<name>.old`` so epoch counts
    are never inflated by stale runs.
    """

    def __init__(
        self,
        shard_id: int,
        shards: int,
        epochs_total: int,
        base_dir: Optional[Union[str, pathlib.Path]] = None,
        clock: Callable[[], float] = _time.time,
    ):
        self.shard_id = int(shard_id)
        self.shards = int(shards)
        self.epochs_total = int(epochs_total)
        self.path = epoch_file(shard_id, base_dir)
        self._clock = clock
        self._opened = False

    def _open(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self.path.replace(self.path.with_name(self.path.name + ".old"))
        self._opened = True

    def record(
        self,
        epoch: int,
        phase: str,
        wall_s: float,
        barrier_s: float,
        records_in: Dict[str, int],
        outboxes: Dict[int, list],
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        """Append one phase record; ``outboxes`` is the dest->records map
        the phase produced (summarised here, never retained).  ``extra``
        carries phase-specific fields (e.g. checkpoint ``bytes`` on
        ``"c"`` records) and never overrides the core keys."""
        if not self._opened:
            self._open()
        rec = {
            "wall": self._clock(),
            "shard": self.shard_id,
            "shards": self.shards,
            "epoch": int(epoch),
            "epochs": self.epochs_total,
            "phase": phase,
            "wall_s": float(wall_s),
            "barrier_s": float(barrier_s),
            "in": {k: int(v) for k, v in records_in.items() if v},
            "out": {int(d): len(recs) for d, recs in outboxes.items()},
            "out_bytes": sum(_record_bytes(r) for r in outboxes.values()),
        }
        if extra:
            for key, value in extra.items():
                rec.setdefault(key, value)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")


def maybe_epoch_tracer(
    shard_id: int,
    shards: int,
    epochs_total: int,
    enabled: Optional[bool] = None,
) -> Optional[EpochTracer]:
    """An :class:`EpochTracer` when tracing is on, else ``None`` — the
    single gate both engine modes use."""
    if enabled is None:
        enabled = resolve_epoch_trace()
    if not enabled:
        return None
    return EpochTracer(shard_id, shards, epochs_total)


# -- readers ----------------------------------------------------------------


def read_epoch_records(path: Union[str, pathlib.Path]) -> List[dict]:
    """All epoch records in one shard file.

    Torn or partial lines (a shard killed mid-write) are skipped, the
    same tolerance the heartbeat reader applies.
    """
    out: List[dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and "epoch" in rec and "phase" in rec:
                out.append(rec)
    return out


def load_epoch_dir(
    directory: Union[str, pathlib.Path],
) -> Dict[int, List[dict]]:
    """shard id -> epoch records for every ``epochs-<k>.jsonl`` present."""
    directory = pathlib.Path(directory)
    out: Dict[int, List[dict]] = {}
    for path in sorted(directory.glob(EPOCH_FILE_PREFIX + "*.jsonl")):
        stem = path.name[len(EPOCH_FILE_PREFIX) : -len(".jsonl")]
        try:
            shard_id = int(stem)
        except ValueError:
            continue
        records = read_epoch_records(path)
        if records:
            out[shard_id] = records
    return out


# -- Chrome trace-event export ----------------------------------------------


def _span_name(rec: dict) -> str:
    return "epoch %d %s" % (rec["epoch"], rec["phase"].upper())


def epoch_trace_doc(records_by_shard: Dict[int, List[dict]]) -> dict:
    """Chrome trace-event JSON for the epoch spans of one run.

    One track (``tid``) per shard.  Every phase becomes a complete
    (``X``) event whose duration is the phase wall time; the barrier
    wait before it becomes its own dimmer ``barrier`` span, so a stall
    at a barrier is a visibly long box.  Every non-empty handoff batch
    becomes a flow arrow (``s``/``f``) from the emitting phase span to
    the receiving shard's matching span — X1 lands in the same epoch's
    phase B, X2 and migrations land in the next epoch's phase A.
    """
    events: List[dict] = [
        {
            "ph": "M",
            "ts": 0,
            "pid": 1,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "repro-shards"},
        }
    ]
    starts: Dict[tuple, float] = {}
    t0 = None
    for shard_id, records in records_by_shard.items():
        events.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": 1,
                "tid": shard_id,
                "name": "thread_name",
                "args": {"name": "shard %d" % shard_id},
            }
        )
        for rec in records:
            start = float(rec["wall"]) - float(rec["wall_s"])
            starts[(shard_id, int(rec["epoch"]), rec["phase"])] = start
            span_t0 = start - float(rec["barrier_s"])
            t0 = span_t0 if t0 is None else min(t0, span_t0)
    if t0 is None:
        t0 = 0.0

    def ts(wall: float) -> float:
        return round((wall - t0) * 1e6, 1)

    flow_id = 0
    for shard_id, records in records_by_shard.items():
        for rec in records:
            epoch = int(rec["epoch"])
            phase = rec["phase"]
            start = starts[(shard_id, epoch, phase)]
            if rec.get("barrier_s", 0.0) > 0.0:
                events.append(
                    {
                        "ph": "X",
                        "ts": ts(start - float(rec["barrier_s"])),
                        "dur": round(float(rec["barrier_s"]) * 1e6, 1),
                        "pid": 1,
                        "tid": shard_id,
                        "name": "barrier",
                        "cat": "barrier",
                        "args": {"epoch": epoch, "before_phase": phase},
                    }
                )
            events.append(
                {
                    "ph": "X",
                    "ts": ts(start),
                    "dur": round(float(rec["wall_s"]) * 1e6, 1),
                    "pid": 1,
                    "tid": shard_id,
                    "name": _span_name(rec),
                    "cat": "phase",
                    "args": {
                        "epoch": epoch,
                        "phase": phase,
                        "in": rec.get("in", {}),
                        "out": rec.get("out", {}),
                        "out_bytes": rec.get("out_bytes", 0),
                    },
                }
            )
            # Flow arrows: phase A feeds the same epoch's phase B on the
            # destination shard (X1); phase B feeds the next epoch's
            # phase A (X2, buffered one epoch like the protocol).
            if phase == "a":
                target = lambda dest: (dest, epoch, "b")  # noqa: E731
            else:
                target = lambda dest: (dest, epoch + 1, "a")  # noqa: E731
            for dest_str, count in rec.get("out", {}).items():
                dest = int(dest_str)
                key = target(dest)
                if not count or key not in starts:
                    continue
                flow_id += 1
                end = start + float(rec["wall_s"])
                events.append(
                    {
                        "ph": "s",
                        "ts": ts(end),
                        "pid": 1,
                        "tid": shard_id,
                        "id": flow_id,
                        "name": "handoff",
                        "cat": "handoff",
                        "args": {"records": count, "to": dest},
                    }
                )
                events.append(
                    {
                        "ph": "f",
                        "bp": "e",
                        "ts": ts(starts[key]),
                        "pid": 1,
                        "tid": dest,
                        "id": flow_id,
                        "name": "handoff",
                        "cat": "handoff",
                        "args": {"records": count, "from": shard_id},
                    }
                )
    events.sort(key=lambda e: (e["ts"], e["tid"], e["ph"]))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_epoch_trace(
    records_by_shard: Dict[int, List[dict]],
    path: Union[str, pathlib.Path],
) -> pathlib.Path:
    """Write :func:`epoch_trace_doc` to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = epoch_trace_doc(records_by_shard)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path
