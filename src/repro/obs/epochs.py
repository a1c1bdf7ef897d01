"""Per-epoch barrier spans for the district-sharded engine.

The sharded engine's unit of progress is the *epoch*: every shard runs
phase A (walkers), hits the X1 barrier, runs phase B (sensors), hits
X2, repeat.  End-of-run ``shardops.*`` gauges say how much total work
each shard did; nothing says *which shard was the straggler at which
epoch* or how handoff volume skewed across the stripes.  This module
records exactly that.

With ``REPRO_EPOCH_TRACE`` set (truthy), every
:class:`~repro.sim.shards.shard.ShardRuntime` owns an
:class:`EpochTracer` that appends one record per phase to its own
``epochs-<k>.jsonl`` in the telemetry directory:

* wall-clock start/duration of the phase (``wall``/``wall_s``);
* time spent waiting at the barrier before the phase (``barrier_s`` —
  in process mode that is genuine pipe-wait, in inline mode it is the
  time the driver spent stepping the *other* shards, which is the same
  straggler signal);
* handed-in record counts by kind (``in``) and handed-out record
  counts by destination shard (``out``).

:func:`epoch_trace_doc` maps the records to Chrome trace events: one
track per shard, a span per phase, a span per barrier wait, and flow
arrows for every cross-shard handoff batch — an epoch-barrier stall
reads as one visibly long span in Perfetto.  That is the ``repro obs
shard-trace`` CLI.  Golden digests are bit-identical with tracing on
or off (asserted in ``tests/test_shard_golden.py``).
"""

from __future__ import annotations

import json
import pathlib
import time as _time
from typing import IO, Callable, Dict, List, Optional, Union

from repro.obs.records import ChromeTrace, read_jsonl, rotate, telemetry_dir
from repro.util.settings import resolve_bool_env

EPOCH_TRACE_ENV = "REPRO_EPOCH_TRACE"

EPOCH_FILE_PREFIX = "epochs-"


def resolve_epoch_trace() -> bool:
    """Whether per-epoch barrier tracing is on (``REPRO_EPOCH_TRACE``)."""
    return resolve_bool_env(EPOCH_TRACE_ENV, False)


def epoch_file(
    shard_id: int, base: Optional[Union[str, pathlib.Path]] = None
) -> pathlib.Path:
    """Path of one shard's epoch-span file."""
    return telemetry_dir(base) / ("%s%d.jsonl" % (EPOCH_FILE_PREFIX, shard_id))


class EpochTracer:
    """Append-only per-shard epoch recorder (one instance per shard).

    The shard calls :meth:`record` once per phase, after the phase ran
    and its outboxes are assembled.  The first record rotates a previous
    run's file away, so epoch counts are never inflated by stale runs,
    and opens the one append handle every record goes through.  Each
    record is flushed as it is written, so ``obs top``/``obs watch`` and
    the file of a crashed process-mode shard hold every finished phase;
    the shard's finalisation calls :meth:`close`.
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
        self._rotated = False
        self._fh: Optional[IO[str]] = None

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
        }
        if extra:
            for key, value in extra.items():
                rec.setdefault(key, value)
        if self._fh is None:
            if not self._rotated:
                rotate(self.path)
                self._rotated = True
            self._fh = open(self.path, "a")
        self._fh.write(json.dumps(rec) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Close the append handle; a later record reopens it without
        rotating."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def maybe_epoch_tracer(
    shard_id: int, shards: int, epochs_total: int
) -> Optional[EpochTracer]:
    """An :class:`EpochTracer` when ``REPRO_EPOCH_TRACE`` is on, else
    ``None`` — the single gate both engine modes use."""
    if not resolve_epoch_trace():
        return None
    return EpochTracer(shard_id, shards, epochs_total)


# -- readers ----------------------------------------------------------------


def read_epoch_records(path: Union[str, pathlib.Path]) -> List[dict]:
    """All epoch records in one shard file."""
    return read_jsonl(path, "epoch", "phase")


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


def epoch_trace_doc(records_by_shard: Dict[int, List[dict]]) -> dict:
    """Chrome trace-event JSON for the epoch spans of one run.

    One track per shard (``tid`` = shard id).  Every phase becomes a
    span whose duration is the phase wall time; the barrier wait before
    it becomes its own dimmer ``barrier`` span, so a stall at a barrier
    is a visibly long box.  Every non-empty handoff batch becomes a flow
    arrow from the end of the emitting phase to the receiving shard's
    matching span — X1 lands in the same epoch's phase B, X2 and
    migrations land in the next epoch's phase A.
    """
    trace = ChromeTrace("repro-shards")
    starts: Dict[tuple, float] = {}
    t0 = None
    for shard_id, records in records_by_shard.items():
        trace.track("shard %d" % shard_id, tid=shard_id)
        for rec in records:
            start = float(rec["wall"]) - float(rec["wall_s"])
            starts[(shard_id, int(rec["epoch"]), rec["phase"])] = start
            span_t0 = start - float(rec["barrier_s"])
            t0 = span_t0 if t0 is None else min(t0, span_t0)
    if t0 is None:
        t0 = 0.0

    def ts(wall: float) -> float:
        return round((wall - t0) * 1e6, 1)

    for shard_id, records in records_by_shard.items():
        for rec in records:
            epoch = int(rec["epoch"])
            phase = rec["phase"]
            start = starts[(shard_id, epoch, phase)]
            wall_s, barrier_s = float(rec["wall_s"]), float(rec["barrier_s"])
            if barrier_s > 0.0:
                trace.span(
                    shard_id,
                    ts(start - barrier_s),
                    round(barrier_s * 1e6, 1),
                    "barrier",
                    "barrier",
                    {"epoch": epoch, "before_phase": phase},
                )
            trace.span(
                shard_id,
                ts(start),
                round(wall_s * 1e6, 1),
                "epoch %d %s" % (epoch, phase.upper()),
                "phase",
                {
                    "epoch": epoch,
                    "phase": phase,
                    "in": rec.get("in", {}),
                    "out": rec.get("out", {}),
                },
            )
            # Phase A feeds the same epoch's phase B on the destination
            # shard (X1); phase B feeds the next epoch's phase A (X2,
            # buffered one epoch like the protocol).
            lands = (epoch, "b") if phase == "a" else (epoch + 1, "a")
            for dest_str, count in rec.get("out", {}).items():
                dest = int(dest_str)
                key = (dest,) + lands
                if not count or key not in starts:
                    continue
                trace.flow(
                    "handoff",
                    "handoff",
                    (shard_id, ts(start + wall_s)),
                    (dest, ts(starts[key])),
                    src_args={"records": count, "to": dest},
                    dst_args={"records": count, "from": shard_id},
                )
    return trace.doc(by_time=True)
