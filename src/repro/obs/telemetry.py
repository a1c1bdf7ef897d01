"""Live executor telemetry: worker heartbeats and the stall watcher.

When ``REPRO_HEARTBEAT`` is set, every worker process in
:mod:`repro.experiments.parallel` appends heartbeat records to its own
``worker-<pid>.jsonl`` in the telemetry directory while a spec runs:
spec id, wall-clock timestamp, simulated-time fraction, and hits so far.

``repro obs watch`` tails those files and renders a live table; a
worker whose newest heartbeat is older than ``--stall-after`` seconds
(and whose file does not end in a ``done`` record) is flagged as
stalled.  Sharded runs heartbeat per *shard* (``shard-<k>.jsonl``) and
carry epoch progress (``epoch``/``epochs`` fields), so a shard that
keeps heartbeating while completing zero epochs past the stall
threshold is flagged too.  ``--once`` prints a single snapshot and
exits non-zero when anything is stalled, which is what the tests drive.

On top of the watcher sits the fleet aggregator
(:func:`fleet_snapshot`, the ``repro obs top`` CLI): it folds worker
heartbeats, shard heartbeats and the per-epoch barrier records of
:mod:`repro.obs.epochs` into one health document with derived signals —
straggler ratio (slowest/median shard phase time), handoff load
imbalance across the stripes, and epochs/sec throughput — and a
``healthy`` verdict scripts and CI can key off.

Heartbeats are sampled on a wall-clock cadence by a daemon thread — the
simulation itself is never touched, so golden digests are identical
with heartbeats on or off.
"""

from __future__ import annotations

import math
import os
import pathlib
import threading
import time as _time
from contextlib import nullcontext
from typing import Callable, ContextManager, List, Optional, Union

from repro.obs.records import read_jsonl, rotate, telemetry_dir, write_jsonl
from repro.util.settings import OFF_WORDS, ON_WORDS, parse_float_setting

HEARTBEAT_ENV = "REPRO_HEARTBEAT"

DEFAULT_INTERVAL_S = 5.0
DEFAULT_STALL_AFTER_S = 60.0
DEFAULT_SHED_THRESHOLD = 0.05

#: Phase records per shard that the fleet's phase-time means cover.
EPOCH_WINDOW = 40

#: Anomaly events of the sharded engine (crash / respawn / kill / ...).
#: Written only when something goes wrong — clean runs never create it.
OPS_EVENTS_FILE = "shardops-events.jsonl"

#: Event kinds that mean a shard recovery is (or just was) in flight.
RECOVERY_EVENT_KINDS = ("shard.crash", "shard.respawn")


def resolve_heartbeat_interval() -> Optional[float]:
    """Heartbeat interval in seconds, or None when heartbeats are off.

    ``REPRO_HEARTBEAT`` is off when blank, ``false``, ``off``, ``no`` or
    a number equal to zero; a truthy flag (``1``, ``true``, ``on``,
    ``yes``) means the 5 s default cadence, and any other finite
    positive number is the interval in seconds
    (``REPRO_HEARTBEAT=2.5``).  Anything else raises a ValueError
    naming the variable: a typo must not silently switch heartbeats
    off, and an infinite interval would kill the heartbeat thread.
    Executor workers, shard runtimes and the
    :class:`~repro.serve.service.RankingService` all read it.
    """
    value = os.environ.get(HEARTBEAT_ENV, "")
    word = value.strip().lower()
    if word in OFF_WORDS:
        return None
    if word in ON_WORDS:
        return DEFAULT_INTERVAL_S
    interval = parse_float_setting(HEARTBEAT_ENV, word)
    if interval == 0:
        return None
    if not (0 < interval < math.inf):
        raise ValueError(
            "%s must be a finite positive number of seconds, got %r"
            % (HEARTBEAT_ENV, value)
        )
    return interval


class HeartbeatWriter:
    """Daemon thread appending progress records for one running spec.

    Used as a context manager around ``sim.run``::

        with HeartbeatWriter(spec_id, duration, progress) as hb:
            sim.run(duration)

    ``progress`` is a zero-argument callable returning
    ``(sim_time, hits)``; it is invoked from the heartbeat thread, so it
    must only *read* (both values are plain floats/ints written by the
    sim thread — a torn read at worst smears one heartbeat, never the
    simulation).
    """

    def __init__(
        self,
        spec_id: str,
        duration_s: float,
        progress: Callable[[], tuple],
        interval_s: float = DEFAULT_INTERVAL_S,
        base_dir: Optional[Union[str, pathlib.Path]] = None,
        clock: Callable[[], float] = _time.time,
        file_stem: Optional[str] = None,
        extra: Optional[Callable[[], dict]] = None,
    ):
        self.spec_id = spec_id
        self.duration_s = max(float(duration_s), 1e-9)
        self._progress = progress
        self._extra = extra
        self.interval_s = float(interval_s)
        self._clock = clock
        # Default stem is per-process (executor workers); shard runtimes
        # pass ``shard-<k>`` so inline shards get distinct files too.
        if file_stem is None:
            file_stem = "worker-%d" % os.getpid()
        self.path = telemetry_dir(base_dir) / (file_stem + ".jsonl")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._seq = 0
        self._last = (0.0, 0)

    # -- record emission --------------------------------------------------

    def _write(self, done: bool = False) -> None:
        try:
            sim_time, hits = self._progress()
        except RuntimeError:
            # The sim thread mutated a dict mid-iteration; skip one
            # sample rather than perturb anything.
            sim_time, hits = self._last
        self._last = (sim_time, hits)
        record = {
            "wall": self._clock(),
            "pid": os.getpid(),
            "spec": self.spec_id,
            "seq": self._seq,
            "sim_time": float(sim_time),
            "fraction": min(1.0, float(sim_time) / self.duration_s),
            "hits": int(hits),
            "done": done,
        }
        if self._extra is not None:
            try:
                record.update(self._extra())
            except RuntimeError:
                pass  # same torn-read tolerance as the progress callable
        self._seq += 1
        write_jsonl(self.path, (record,))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._write()

    # -- context manager --------------------------------------------------

    def __enter__(self) -> "HeartbeatWriter":
        # A worker process (or inline shard stem) starting a new spec
        # rotates its previous file away, so the watcher's row —
        # fractions, beat counts, done flags — only ever describes the
        # *current* run.
        rotate(self.path)
        self._write()
        self._thread = threading.Thread(
            target=self._loop, name="repro-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s + 1.0)
        self._write(done=True)


_current_spec_label: Optional[str] = None


def set_current_spec(label: Optional[str]) -> None:
    """Process-local label for the spec this worker is executing.

    Set by the executor before dispatching into the runner, so the
    heartbeat emitted deep inside ``run_experiment`` can name the spec
    without the runner growing a telemetry parameter.
    """
    global _current_spec_label
    _current_spec_label = label


def current_spec_label() -> Optional[str]:
    return _current_spec_label


def maybe_heartbeat(
    label: Optional[str],
    duration_s: float,
    progress: Callable[[], tuple],
    file_stem: Optional[str] = None,
    extra: Optional[Callable[[], dict]] = None,
) -> ContextManager:
    """A :class:`HeartbeatWriter` when ``REPRO_HEARTBEAT`` is set, else a
    no-op context — the single gate both executor routes use."""
    interval = resolve_heartbeat_interval()
    if interval is None:
        return nullcontext()
    if label is None:
        label = current_spec_label() or "?"
    return HeartbeatWriter(
        label,
        duration_s,
        progress,
        interval_s=interval,
        file_stem=file_stem,
        extra=extra,
    )


# -- shard ops events -------------------------------------------------------


def ops_events_path(
    base: Optional[Union[str, pathlib.Path]] = None,
) -> pathlib.Path:
    """Path of the shard-ops anomaly event file."""
    return telemetry_dir(base) / OPS_EVENTS_FILE


def append_ops_event(
    kind: str,
    base: Optional[Union[str, pathlib.Path]] = None,
    clock: Callable[[], float] = _time.time,
    **fields: object,
) -> None:
    """Append one anomaly event (crash, respawn, shutdown escalation...).

    Called only when something went wrong, so a clean run creates no
    telemetry directory at all — heartbeats-off runs stay file-free.
    """
    path = ops_events_path(base)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(path, ({"wall": clock(), "kind": kind, **fields},))


def read_ops_events(path: Union[str, pathlib.Path]) -> List[dict]:
    """All ops events in one file ([] when absent)."""
    return read_jsonl(path, "kind")


# -- the watcher ------------------------------------------------------------


def watch_snapshot(
    directory: Union[str, pathlib.Path],
    stall_after_s: float = DEFAULT_STALL_AFTER_S,
    now: Optional[float] = None,
) -> List[dict]:
    """One row per worker file: latest progress plus stall status.

    A worker is ``stalled`` when its newest record is not ``done`` and
    is older than ``stall_after_s`` seconds of wall clock.  Shard rows
    additionally carry epoch progress (``epoch``/``epochs``, written by
    the shard runtimes) and are stalled when they have completed *zero*
    epochs although their first heartbeat is older than the threshold —
    a shard can heartbeat forever while wedged before its first
    barrier.  Pure function of the files and ``now`` — tests pass a
    frozen ``now``.
    """
    directory = pathlib.Path(directory)
    if now is None:
        now = _time.time()
    rows: List[dict] = []
    paths = sorted(
        list(directory.glob("worker-*.jsonl"))
        + list(directory.glob("shard-*.jsonl"))
        + list(directory.glob("serve-*.jsonl"))
    )
    for path in paths:
        records = read_jsonl(path)
        if not records:
            continue
        last = records[-1]
        age = max(0.0, now - float(last.get("wall", now)))
        done = bool(last.get("done"))
        stalled = (not done) and age > stall_after_s
        epoch = last.get("epoch")
        epochs = last.get("epochs")
        if not done and epoch is not None and int(epoch) == 0:
            first_age = max(0.0, now - float(records[0].get("wall", now)))
            stalled = stalled or first_age > stall_after_s
        row = {
            "file": path.name,
            "pid": last.get("pid"),
            "spec": last.get("spec"),
            "sim_time": last.get("sim_time"),
            "fraction": last.get("fraction"),
            "hits": last.get("hits"),
            "epoch": epoch,
            "epochs": epochs,
            "beats": len(records),
            "age_s": age,
            "done": done,
            "stalled": stalled,
        }
        if path.name.startswith("serve-"):
            row["kind"] = "serve"
            for key in SERVE_EXTRA_KEYS:
                row[key] = last.get(key)
            shed_fraction = last.get("shed_fraction") or 0.0
            depth, cap = last.get("queue_depth"), last.get("queue_max")
            row["overloaded"] = (not done) and (
                shed_fraction > DEFAULT_SHED_THRESHOLD
                or (depth is not None and cap and int(depth) >= int(cap))
            )
            # A service can heartbeat forever while its consumer is
            # stuck: no event applied (committed or failed) with a
            # backlog behind it is a stall even when the file keeps
            # growing.  ``events`` counts shed probes, which never
            # reach the queue.
            applied = _serve_applied(last)
            events = last.get("events")
            if (
                not done
                and applied is not None
                and events is not None
                and int(events) - int(last.get("shed") or 0) > applied
            ):
                frozen_since = float(last.get("wall", now))
                for rec in reversed(records):
                    if _serve_applied(rec) != applied:
                        break
                    frozen_since = float(rec.get("wall", frozen_since))
                row["stalled"] = (
                    row["stalled"] or (now - frozen_since) > stall_after_s
                )
        rows.append(row)
    return rows


def _serve_applied(record: dict) -> Optional[int]:
    """Events a serve heartbeat says were applied: committed or failed."""
    committed = record.get("committed")
    if committed is None:
        return None
    return int(committed) + int(record.get("events_failed") or 0)


#: Fields a serve heartbeat carries beyond the base record shape.
SERVE_EXTRA_KEYS = (
    "events",
    "committed",
    "probes_per_s",
    "queue_depth",
    "queue_max",
    "shed",
    "shed_fraction",
    "p50_us",
    "p99_us",
    "events_failed",
)


def _epoch_cell(row: dict) -> str:
    epoch = row.get("epoch")
    if epoch is None:
        return "-"
    epochs = row.get("epochs")
    return "%d/%d" % (epoch, epochs) if epochs else str(epoch)


def render_watch(rows: List[dict], stall_after_s: float) -> str:
    """The ``repro obs watch`` table (workers and shards, uniformly)."""
    if not rows:
        return "no heartbeat files yet"
    lines = [
        f"{'worker':<22} {'spec':<34} {'progress':>8} {'epoch':>9} "
        f"{'hits':>6} {'beats':>6} {'age s':>7}  status"
    ]
    for row in rows:
        fraction = row.get("fraction")
        progress = "%5.1f%%" % (fraction * 100) if fraction is not None else "?"
        spec = str(row.get("spec") or "?")
        if len(spec) > 34:
            spec = spec[:31] + "..."
        if row["done"]:
            status = "done"
        elif row["stalled"]:
            status = "STALLED (silent > %.0fs)" % stall_after_s
        elif row.get("overloaded"):
            status = "OVERLOADED (shed %.1f%%)" % (
                100.0 * (row.get("shed_fraction") or 0.0)
            )
        elif row.get("recovering"):
            status = "recovering"
        elif row.get("kind") == "serve":
            status = "serving"
        else:
            status = "running"
        lines.append(
            f"{row['file']:<22} {spec:<34} {progress:>8} "
            f"{_epoch_cell(row):>9} "
            f"{row.get('hits', 0):>6} {row['beats']:>6} {row['age_s']:>7.1f}  "
            f"{status}"
        )
    stalled = sum(1 for r in rows if r["stalled"])
    if stalled:
        lines.append("%d worker(s) stalled" % stalled)
    return "\n".join(lines)


# -- the fleet aggregator ---------------------------------------------------


def _shard_epoch_stats(records: List[dict]) -> dict:
    """Derived per-shard stats from one epochs-<k>.jsonl record list.

    Checkpoint records (``phase == "c"``) share the file but are not
    barrier phases — they are excluded from the wall-time means and the
    epochs/sec rate, and summarised separately.
    """
    done_epochs = {
        int(r["epoch"]) for r in records if r.get("phase") == "b"
    }
    phase_records = [r for r in records if r.get("phase") in ("a", "b")]
    ckpt_records = [r for r in records if r.get("phase") == "c"]
    latest = phase_records[-1] if phase_records else records[-1]
    recent = phase_records[-EPOCH_WINDOW:]
    phase_walls = [float(r.get("wall_s", 0.0)) for r in recent]
    barrier_walls = [float(r.get("barrier_s", 0.0)) for r in recent]
    handoff_out = sum(
        int(n) for r in phase_records for n in r.get("out", {}).values()
    )
    walls = [float(r.get("wall", 0.0)) for r in recent]
    span = (max(walls) - min(walls)) if len(walls) > 1 else 0.0
    return {
        "epochs_done": (max(done_epochs) + 1) if done_epochs else 0,
        "epochs_total": int(records[-1].get("epochs", 0)),
        "last_epoch": int(latest["epoch"]),
        "last_phase": latest.get("phase"),
        "phase_wall_mean_s": (
            sum(phase_walls) / len(phase_walls) if phase_walls else 0.0
        ),
        "barrier_wall_mean_s": (
            sum(barrier_walls) / len(barrier_walls) if barrier_walls else 0.0
        ),
        "handoff_out_records": handoff_out,
        # Two phase records per epoch -> epochs/sec over the window.
        "epochs_per_s": (len(recent) / 2.0) / span if span > 0 else None,
        "last_wall": float(records[-1].get("wall", 0.0)),
        "checkpoints": len(ckpt_records),
        "checkpoint_bytes": sum(int(r.get("bytes", 0)) for r in ckpt_records),
    }


def fleet_snapshot(
    directory: Union[str, pathlib.Path],
    stall_after_s: float = DEFAULT_STALL_AFTER_S,
    now: Optional[float] = None,
    straggler_threshold: float = 4.0,
    imbalance_threshold: float = 4.0,
) -> dict:
    """One health document over everything the telemetry directory holds.

    Folds the heartbeat rows (workers + shards) and the per-epoch
    barrier records into derived signals:

    * ``straggler_ratio`` — slowest / median mean phase wall time across
      shards over the last :data:`EPOCH_WINDOW` phase records;
    * ``handoff_imbalance`` — max / mean handed-off record volume across
      shards (stripe load skew);
    * ``epochs_per_s`` — barrier throughput of the slowest shard over
      its recent window.

    ``healthy`` is false when anything is stalled or a ratio exceeds its
    threshold; each violation is spelled out in ``problems``.  Pure
    function of the files, ``now`` and the thresholds — the ``repro obs
    top --once`` exit code is ``healthy``.
    """
    from repro.obs.epochs import load_epoch_dir

    directory = pathlib.Path(directory)
    if now is None:
        now = _time.time()
    rows = watch_snapshot(directory, stall_after_s=stall_after_s, now=now)
    workers = [r for r in rows if r["file"].startswith("worker-")]
    shards = [r for r in rows if r["file"].startswith("shard-")]
    services = [r for r in rows if r["file"].startswith("serve-")]
    epoch_stats = {
        shard_id: _shard_epoch_stats(records)
        for shard_id, records in load_epoch_dir(directory).items()
    }

    events = read_ops_events(directory / OPS_EVENTS_FILE)
    crash_events = [e for e in events if e.get("kind") == "shard.crash"]
    respawn_events = [e for e in events if e.get("kind") == "shard.respawn"]
    recovery_walls = [
        float(e.get("wall", 0.0))
        for e in events
        if e.get("kind") in RECOVERY_EVENT_KINDS
    ]
    # A recovery is in flight while its events are recent and, when
    # shards heartbeat, until every shard row reads done.
    recovery_active = (
        bool(recovery_walls)
        and now - max(recovery_walls) <= stall_after_s
        and not (shards and all(row["done"] for row in shards))
    )
    crashes_by_shard: dict = {}
    for e in crash_events:
        if e.get("shard") is not None:
            key = str(e["shard"])
            crashes_by_shard[key] = crashes_by_shard.get(key, 0) + 1
    if recovery_active:
        # A respawned shard restarts its heartbeat file and epoch
        # counter, which the zero-epochs stall check would misread as a
        # wedge — while a recovery is in flight, shard stalls are the
        # recovery, not a new problem.
        for row in shards:
            if row["stalled"]:
                row["stalled"] = False
                row["recovering"] = True

    problems: List[str] = []
    for row in rows:
        if row["stalled"]:
            problems.append("%s stalled" % row["file"])
    for row in services:
        if row.get("overloaded"):
            problems.append(
                "%s overloaded (shed %.1f%%, queue %s/%s)"
                % (
                    row["file"],
                    100.0 * (row.get("shed_fraction") or 0.0),
                    row.get("queue_depth"),
                    row.get("queue_max"),
                )
            )

    straggler_ratio = None
    phase_means = sorted(
        s["phase_wall_mean_s"]
        for s in epoch_stats.values()
        if s["phase_wall_mean_s"] > 0
    )
    if len(phase_means) >= 2:
        mid = len(phase_means) // 2
        if len(phase_means) % 2:
            median = phase_means[mid]
        else:
            # True median: the upper-middle element would make the ratio
            # identically 1.0 at two shards and mute the signal.
            median = 0.5 * (phase_means[mid - 1] + phase_means[mid])
        if median > 0:
            straggler_ratio = phase_means[-1] / median
            if straggler_ratio > straggler_threshold:
                problems.append(
                    "straggler ratio %.2f exceeds %.2f"
                    % (straggler_ratio, straggler_threshold)
                )

    handoff_imbalance = None
    volumes = [s["handoff_out_records"] for s in epoch_stats.values()]
    if len(volumes) >= 2 and sum(volumes) > 0:
        mean = sum(volumes) / len(volumes)
        if mean > 0:
            handoff_imbalance = max(volumes) / mean
            if handoff_imbalance > imbalance_threshold:
                problems.append(
                    "handoff imbalance %.2f exceeds %.2f"
                    % (handoff_imbalance, imbalance_threshold)
                )

    rates = [
        s["epochs_per_s"]
        for s in epoch_stats.values()
        if s["epochs_per_s"] is not None
    ]
    return {
        "now": now,
        "stall_after_s": stall_after_s,
        "workers": workers,
        "shards": shards,
        "services": services,
        "epochs": {str(k): v for k, v in sorted(epoch_stats.items())},
        "recovery": {
            "crashes": len(crash_events),
            "respawns": len(respawn_events),
            "crashes_by_shard": crashes_by_shard,
            "active": recovery_active,
        },
        "health": {
            "straggler_ratio": straggler_ratio,
            "straggler_threshold": straggler_threshold,
            "handoff_imbalance": handoff_imbalance,
            "imbalance_threshold": imbalance_threshold,
            "epochs_per_s": min(rates) if rates else None,
            "stalled": sum(1 for r in rows if r["stalled"]),
            "overloaded": sum(1 for r in services if r.get("overloaded")),
            "shed_threshold": DEFAULT_SHED_THRESHOLD,
            "crashes": len(crash_events),
            "recoveries": len(respawn_events),
            "recovery_active": recovery_active,
            "problems": problems,
            "healthy": not problems,
        },
    }


def _ratio_cell(value: Optional[float]) -> str:
    return "%.2f" % value if value is not None else "-"


def render_top(doc: dict) -> str:
    """The ``repro obs top`` dashboard: fleet table, per-shard epoch
    stats, and the derived health line."""
    health = doc["health"]
    recovery = doc.get("recovery", {})
    services = doc.get("services", [])
    rows = doc["workers"] + doc["shards"] + services
    recovery_cell = ""
    if recovery.get("crashes") or recovery.get("respawns"):
        recovery_cell = "   recoveries %d (%d crash(es)%s)" % (
            recovery.get("respawns", 0),
            recovery.get("crashes", 0),
            ", in flight" if recovery.get("active") else "",
        )
    lines = [
        "fleet: %d worker(s), %d shard(s), %d service(s)   epochs/s %s   "
        "straggler %s   imbalance %s%s"
        % (
            len(doc["workers"]),
            len(doc["shards"]),
            len(services),
            _ratio_cell(health["epochs_per_s"]),
            _ratio_cell(health["straggler_ratio"]),
            _ratio_cell(health["handoff_imbalance"]),
            recovery_cell,
        ),
        "",
        render_watch(rows, doc["stall_after_s"]),
    ]
    if services:
        lines.append("")
        lines.append(
            f"{'service':<22} {'probes/s':>9} {'queue':>11} {'shed %':>7} "
            f"{'p50 us':>8} {'p99 us':>8} {'failed':>9}  verdict"
        )
        for row in services:
            rate = row.get("probes_per_s")
            rate_cell = "%.0f" % rate if rate is not None else "-"
            queue_cell = "%s/%s" % (
                row.get("queue_depth", "-"),
                row.get("queue_max", "-"),
            )
            shed_cell = "%.1f" % (100.0 * (row.get("shed_fraction") or 0.0))
            p50, p99 = row.get("p50_us"), row.get("p99_us")
            p50 = "%.1f" % p50 if p50 is not None else "-"
            p99 = "%.1f" % p99 if p99 is not None else "-"
            if row["done"]:
                verdict = "done"
            elif row["stalled"]:
                verdict = "STALLED"
            elif row.get("overloaded"):
                verdict = "OVERLOADED"
            else:
                verdict = "serving"
            lines.append(
                f"{row['file']:<22} {rate_cell:>9} {queue_cell:>11} "
                f"{shed_cell:>7} "
                f"{p50:>8} {p99:>8} "
                f"{row.get('events_failed') or 0:>9}  {verdict}"
            )
    if doc["epochs"]:
        crashes_by_shard = recovery.get("crashes_by_shard", {})
        lines.append("")
        lines.append(
            f"{'shard':>6} {'epoch':>9} {'phase ms':>9} {'barrier ms':>11} "
            f"{'handoff recs':>13} {'ep/s':>6} {'ckpt':>5} "
            f"{'recov':>6}"
        )
        for shard_id, stats in doc["epochs"].items():
            epoch_cell = "%d/%d" % (stats["epochs_done"], stats["epochs_total"])
            rate = stats["epochs_per_s"]
            rate_cell = "%.2f" % rate if rate is not None else "-"
            lines.append(
                f"{shard_id:>6} {epoch_cell:>9} "
                f"{1e3 * stats['phase_wall_mean_s']:>9.2f} "
                f"{1e3 * stats['barrier_wall_mean_s']:>11.2f} "
                f"{stats['handoff_out_records']:>13} "
                f"{rate_cell:>6} "
                f"{stats.get('checkpoints', 0):>5} "
                f"{crashes_by_shard.get(str(shard_id), 0):>6}"
            )
    lines.append("")
    if health["healthy"]:
        lines.append("health: OK")
    else:
        lines.append("health: DEGRADED")
        for problem in health["problems"]:
            lines.append("  - " + problem)
    return "\n".join(lines)
