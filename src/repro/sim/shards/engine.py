"""The sharded city engine: shard drivers + deterministic exchange.

:class:`ShardedCitySim` cuts the city into district-column stripes,
runs one :class:`~repro.sim.shards.shard.ShardRuntime` per shard, and
moves every cross-shard effect through the barrier exchange:

* **X1** (after phase A): probe and feedback records to each sensor's
  owner, migration records to each walker's next owner.
* **X2** (after phase B): offer records to each walker's next owner,
  buffered one epoch (the protocol's fixed response latency — itself
  shard-count-invariant, since it applies identically at one shard).

Receivers sort every batch by the shard-count-invariant
:func:`~repro.sim.shards.handoff.sort_key` before applying, so the
result — metrics, walker rows, hunter states, and therefore
:meth:`ShardRunResult.digest` — is bit-identical at any shard count, in
either execution mode:

* ``inline`` — all shards stepped in this process (the default).  On
  one core, extra inline shards only add handoff work: a shard's epoch
  costs O(scans x candidate sensors) at any stripe width.
* ``process`` — one OS process per shard, exchanged over pipes.

**Fault tolerance** (PR 8, process mode): with
``REPRO_SHARD_CKPT_EVERY=N`` every shard serialises its barrier state
to ``checkpoints/`` every N epochs and the coordinator commits a
manifest naming the last globally consistent barrier (see
:mod:`repro.sim.shards.checkpoint`).  The coordinator detects dead
shards (pipe ``EOFError`` + exitcode polling), hung shards (a per-phase
deadline derived from recent phase walls, or the explicit
``REPRO_SHARD_PHASE_TIMEOUT_S``), and corrupt handoff batches
(:func:`~repro.sim.shards.handoff.validate_outbox` on every received
outbox); any of the three raises :class:`ShardCrash`, after which *all*
shards are torn down, respawned from the manifest barrier, and the run
replays — deterministically, so the recovered digest is bit-identical
to an uninterrupted run.  At most ``REPRO_SHARD_MAX_RECOVERIES``
(default 3) recoveries are attempted; an ``("err", traceback)`` reply
is a deterministic bug, never retried.  All recovery accounting lands
under stripped ``shardops.recovery.*`` / ``shardops.ckpt.*`` metrics
and as ``telemetry/shardops-events.jsonl`` events — digests never move.

``REPRO_SHARDS`` / ``REPRO_SHARD_MODE`` select count and mode the same
way ``REPRO_WORKERS`` selects executor width.  When ``REPRO_HEARTBEAT``
is set each shard appends live progress (including epoch counts) to
``telemetry/shard-<k>.jsonl`` for ``repro obs watch``; when
``REPRO_EPOCH_TRACE`` is set each shard additionally records per-epoch
barrier spans to ``telemetry/epochs-<k>.jsonl`` for ``repro obs top``
and ``repro obs shard-trace`` (see :mod:`repro.obs.epochs`).
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing as mp
import os
import pathlib
import time as _time
import traceback
from collections import deque
from contextlib import ExitStack
from typing import Dict, List, Optional, Tuple

from repro.analysis.breakdown import BufferBreakdown, SourceBreakdown
from repro.analysis.metrics import SessionSummary
from repro.faults.plan import FaultPlan
from repro.faults.shards import (
    SHARD_CRASH_EXIT_CODE,
    InjectedShardCrash,
    ShardFaultParams,
    corrupt_now,
    corrupt_outbox,
    crash_now,
    stall_seconds,
    target_shard,
)
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.obs.telemetry import append_ops_event, maybe_heartbeat
from repro.sim.clock import epoch_schedule
from repro.sim.shards import handoff
from repro.sim.shards.checkpoint import (
    CKPT_SCHEMA,
    CheckpointError,
    checkpoint_dir,
    load_manifest,
    pending_name,
    read_blob,
    resolve_ckpt_every,
    shard_ckpt_name,
    write_blob,
    write_manifest,
)
from repro.sim.shards.handoff import CorruptHandoffError
from repro.sim.shards.scenario import ShardScenario
from repro.sim.shards.shard import ShardRuntime
from repro.util.settings import (
    parse_float_setting,
    parse_int_setting,
    resolve_int_env,
)

SHARDS_ENV = "REPRO_SHARDS"
SHARD_MODE_ENV = "REPRO_SHARD_MODE"
SHARD_MODES = ("inline", "process")

#: Per-phase coordinator deadline override (seconds); unset = adaptive.
PHASE_TIMEOUT_ENV = "REPRO_SHARD_PHASE_TIMEOUT_S"
#: How many crash recoveries to attempt before giving up.
MAX_RECOVERIES_ENV = "REPRO_SHARD_MAX_RECOVERIES"
DEFAULT_MAX_RECOVERIES = 3

#: Adaptive deadline: before any phase completed we have no baseline.
FIRST_PHASE_DEADLINE_S = 300.0
#: ...after that, a phase is hung at this multiple of the recent mean.
DEADLINE_FACTOR = 25.0
#: Never declare a hang faster than this (scheduler noise headroom).
DEADLINE_FLOOR_S = 30.0

#: Metric namespace stripped from golden canonical form and digests —
#: everything under it is legitimately shard-count-dependent.
OPS_PREFIX = "shardops."
#: Workload namespace: integer-valued, bit-identical at any shard count.
SIM_PREFIX = "shardsim."

RESULT_SCHEMA = "repro.shard_run/v1"


def resolve_shards(shards: Optional[int] = None) -> int:
    """Shard count: explicit argument beats ``REPRO_SHARDS`` beats 1."""
    if shards is not None:
        return parse_int_setting("shards", shards, 1)
    return resolve_int_env(SHARDS_ENV, 1, 1)


def resolve_shard_mode(mode: Optional[str] = None) -> str:
    """Execution mode: explicit argument beats ``REPRO_SHARD_MODE``."""
    if mode is None:
        mode = os.environ.get(SHARD_MODE_ENV, "").strip().lower() or "inline"
    if mode not in SHARD_MODES:
        raise ValueError(
            "unknown shard mode %r (have: %s)" % (mode, ", ".join(SHARD_MODES))
        )
    return mode


def resolve_phase_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Explicit per-phase deadline, or None for the adaptive one."""
    name = "phase timeout"
    if timeout is None:
        raw = os.environ.get(PHASE_TIMEOUT_ENV, "").strip()
        if not raw:
            return None
        name, timeout = PHASE_TIMEOUT_ENV, raw
    timeout = parse_float_setting(name, timeout)
    if not timeout > 0:  # NaN fails this too
        raise ValueError("%s must be > 0, got %r" % (name, timeout))
    return timeout


def resolve_max_recoveries(limit: Optional[int] = None) -> int:
    """Crash-recovery budget (``REPRO_SHARD_MAX_RECOVERIES``, default 3)."""
    if limit is not None:
        return parse_int_setting("max recoveries", limit, 0)
    return resolve_int_env(MAX_RECOVERIES_ENV, DEFAULT_MAX_RECOVERIES, 0)


class ShardCrash(RuntimeError):
    """A shard died, hung, or handed off garbage — recoverable.

    Distinct from an ``("err", traceback)`` reply, which is a
    deterministic bug in shard code and would fail identically on
    replay; only *this* class triggers checkpoint recovery.
    """

    def __init__(
        self,
        shard_id: int,
        epoch: int,
        phase: str,
        reason: str,
        exitcode: Optional[int] = None,
    ):
        super().__init__(
            "shard %d crashed at epoch %d phase %s: %s%s"
            % (
                shard_id,
                epoch,
                phase,
                reason,
                "" if exitcode is None else " (exitcode %s)" % exitcode,
            )
        )
        self.shard_id = shard_id
        self.epoch = epoch
        self.phase = phase
        self.reason = reason
        self.exitcode = exitcode


class ShardRunResult:
    """Everything a finished sharded run produced."""

    def __init__(
        self,
        scenario: ShardScenario,
        shards: int,
        mode: str,
        epochs: int,
        metrics: dict,
        summary: Dict[str, int],
        walker_rows: Optional[dict],
        hunter_states: Optional[dict],
        handoff_logs: Optional[Dict[int, list]],
        wall_phase_s: float,
        wall_handoff_s: float,
    ):
        self.scenario = scenario
        self.shards = shards
        self.mode = mode
        self.epochs = epochs
        self.metrics = metrics
        self.summary = summary
        self.walker_rows = walker_rows
        self.hunter_states = hunter_states
        self.handoff_logs = handoff_logs
        self.wall_phase_s = wall_phase_s
        self.wall_handoff_s = wall_handoff_s

    def digest(self) -> str:
        """SHA-256 over the shard-count-invariant portion of the run:
        ``shardsim.*`` metrics, the summary, and (when collected) every
        walker row and hunter state.  The number this PR's invariance
        gates compare at shards 1/2/4."""
        payload = {
            "schema": RESULT_SCHEMA,
            "counters": {
                k: v
                for k, v in self.metrics.get("counters", {}).items()
                if k.startswith(SIM_PREFIX)
            },
            "gauges": {
                k: v
                for k, v in self.metrics.get("gauges", {}).items()
                if k.startswith(SIM_PREFIX)
            },
            "summary": self.summary,
        }
        if self.walker_rows is not None:
            payload["walkers"] = {
                str(w): list(row) for w, row in sorted(self.walker_rows.items())
            }
        if self.hunter_states is not None:
            payload["hunters"] = {
                str(s): state for s, state in sorted(self.hunter_states.items())
            }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def session_summary(self) -> SessionSummary:
        """The Table I-style row: shard walkers only broadcast-probe, so
        every client and every catch sits in the broadcast column."""
        probed = self.summary["probed"]
        return SessionSummary(
            total_clients=probed,
            direct_clients=0,
            broadcast_clients=probed,
            connected_direct=0,
            connected_broadcast=self.summary["connected"],
        )

    def source_breakdown(self) -> SourceBreakdown:
        """All lures come from the popularity-seeded SSID ranking (the
        WiGLE analogue); shard walkers never direct-probe."""
        return SourceBreakdown(from_wigle=self.summary["hits"], from_direct=0)

    def buffer_breakdown(self) -> BufferBreakdown:
        """Hit attribution by offering buffer (PB vs FB)."""
        counters = self.metrics.get("counters", {})
        return BufferBreakdown(
            from_popularity=int(counters.get("shardsim.hits_popularity", 0)),
            from_freshness=int(counters.get("shardsim.hits_freshness", 0)),
        )


def _empty_ops() -> Dict[str, float]:
    """Per-run recovery/checkpoint accounting, merged nonzero-only."""
    return {
        "crashes": 0,
        "respawns": 0,
        "rollback_epochs": 0,
        "recovery_wall": 0.0,
        "ckpt_barriers": 0,
        "ckpt_pending_bytes": 0,
        "ckpt_barrier_wall": 0.0,
    }


def _merge_results(
    scenario: ShardScenario,
    shards: int,
    mode: str,
    epochs: int,
    results: List[dict],
    wall_phase: float,
    wall_handoff: float,
    collect_states: bool,
    log_handoffs: bool,
    ops: Optional[Dict[str, float]] = None,
) -> ShardRunResult:
    """Fold per-shard finalise payloads (in shard order) into one result."""
    engine = MetricsRegistry()
    engine.gauge_set("shardops.shards", shards)
    engine.timer_add("shards.phase_wall", wall_phase)
    engine.timer_add("shards.handoff_wall", wall_handoff)
    if ops:
        # Nonzero-only, so fault-free runs emit byte-identical metrics
        # documents whether or not the recovery machinery was armed.
        if ops["crashes"]:
            engine.inc("shardops.recovery.crashes", int(ops["crashes"]))
            engine.inc("shardops.recovery.respawns", int(ops["respawns"]))
            engine.inc(
                "shardops.recovery.rollback_epochs",
                int(ops["rollback_epochs"]),
            )
            engine.timer_add("shardops.recovery_wall", ops["recovery_wall"])
        if ops["ckpt_barriers"]:
            engine.inc("shardops.ckpt.barriers", int(ops["ckpt_barriers"]))
            engine.inc(
                "shardops.ckpt.pending_bytes", int(ops["ckpt_pending_bytes"])
            )
            engine.timer_add(
                "shardops.ckpt_barrier_wall", ops["ckpt_barrier_wall"]
            )
    merged = merge_snapshots([r["metrics"] for r in results] + [engine.to_dict()])
    counters = merged["counters"]
    summary = {
        "stations": scenario.stations,
        "sensors": scenario.sensors,
        "probed": sum(r["summary"]["probed"] for r in results),
        "connected": sum(r["summary"]["connected"] for r in results),
        "hits": int(counters.get("shardsim.hits", 0)),
        "scans": int(counters.get("shardsim.scans", 0)),
        "probes": int(counters.get("shardsim.probes", 0)),
        "offers": int(counters.get("shardsim.offers", 0)),
        "feedbacks": int(counters.get("shardsim.feedbacks", 0)),
    }
    walker_rows = hunter_states = None
    if collect_states:
        walker_rows = {}
        hunter_states = {}
        for r in results:
            walker_rows.update(r["walker_rows"])
            hunter_states.update(r["hunter_states"])
    handoff_logs = (
        {r["shard"]: r["handoff_log"] for r in results} if log_handoffs else None
    )
    return ShardRunResult(
        scenario,
        shards,
        mode,
        epochs,
        merged,
        summary,
        walker_rows,
        hunter_states,
        handoff_logs,
        wall_phase,
        wall_handoff,
    )


def _route(outboxes: List[dict], shards: int) -> List[list]:
    """Merge per-shard outboxes into per-destination inboxes."""
    inboxes: List[list] = [[] for _ in range(shards)]
    for out in outboxes:
        for dest, records in out.items():
            inboxes[dest].extend(records)
    return inboxes


def _split_sensor_in(
    sensor_in: List[list], shards: int
) -> Tuple[List[list], List[list], List[list]]:
    """Split routed X1 inboxes into (migrations, probes, feedbacks)."""
    migrations: List[list] = [[] for _ in range(shards)]
    probes_in: List[list] = [[] for _ in range(shards)]
    feedbacks_in: List[list] = [[] for _ in range(shards)]
    for dest in range(shards):
        for rec in sensor_in[dest]:
            if rec[0] == "p":
                probes_in[dest].append(rec)
            elif rec[0] == "f":
                feedbacks_in[dest].append(rec)
            else:
                migrations[dest].append(rec)
    return migrations, probes_in, feedbacks_in


def _shard_worker(
    conn,
    scenario: ShardScenario,
    shard_id: int,
    shards: int,
    collect_states: bool,
    log_handoffs: bool,
    epoch_trace: Optional[bool] = None,
    fault: Optional[ShardFaultParams] = None,
    fault_seed: int = 0,
    incarnation: int = 0,
    restore_path: Optional[str] = None,
) -> None:
    """Process-mode loop: one ShardRuntime driven by pipe commands.

    ``incarnation`` counts respawns of this shard id (0 = original),
    gating fault injection so a recovered replay runs clean;
    ``restore_path`` rolls the fresh runtime back to a checkpoint
    barrier before the first command.
    """
    try:
        runtime = ShardRuntime(
            scenario,
            shard_id,
            shards,
            log_handoffs=log_handoffs,
            epoch_trace=epoch_trace,
        )
        if restore_path is not None:
            runtime.restore_file(pathlib.Path(restore_path))
        duration = runtime.barriers[-1]
        with maybe_heartbeat(
            "shard %d/%d" % (shard_id, shards),
            duration,
            lambda: (runtime.barriers[runtime.epochs_done], runtime.hits),
            file_stem="shard-%d" % shard_id,
            extra=lambda: {
                "epoch": runtime.epochs_done,
                "epochs": runtime.epochs,
            },
        ):
            while True:
                msg = conn.recv()
                op = msg[0]
                if op == "a":
                    _, epoch, migrations, offers, last = msg
                    if fault is not None:
                        if crash_now(
                            fault, fault_seed, shard_id, shards, epoch, incarnation
                        ):
                            # Die like an OOM kill: no cleanup, no reply,
                            # a distinctive exitcode for the coordinator.
                            os._exit(SHARD_CRASH_EXIT_CODE)
                        stall = stall_seconds(
                            fault, fault_seed, shard_id, shards, epoch, incarnation
                        )
                        if stall > 0:
                            _time.sleep(stall)
                    out = runtime.run_phase_a(epoch, migrations, offers, last)
                    if fault is not None and corrupt_now(
                        fault, fault_seed, shard_id, shards, epoch, incarnation
                    ):
                        corrupt_outbox(fault, out)
                    conn.send(("ok", out))
                elif op == "b":
                    _, epoch, feedbacks, probes = msg
                    conn.send(("ok", runtime.run_phase_b(epoch, feedbacks, probes)))
                elif op == "ckpt":
                    _, epoch, directory = msg
                    conn.send(
                        ("ok", runtime.write_checkpoint(epoch, pathlib.Path(directory)))
                    )
                elif op == "fin":
                    conn.send(("ok", runtime.finalize(collect_states)))
                    return
                else:  # pragma: no cover - protocol bug guard
                    raise RuntimeError("unknown shard command %r" % (op,))
    except Exception:
        try:
            conn.send(("err", traceback.format_exc()))
        except (BrokenPipeError, OSError):
            # The pipe itself failed: the error report cannot reach the
            # coordinator, so leave an event behind and die loudly —
            # a nonzero exitcode is what its crash detection polls for.
            try:
                append_ops_event("shard.pipe_error", shard=shard_id)
            except OSError:  # pragma: no cover - best-effort telemetry
                pass
            raise
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


class ShardedCitySim:
    """Run one :class:`ShardScenario` across district shards."""

    def __init__(
        self,
        scenario: ShardScenario,
        shards: Optional[int] = None,
        mode: Optional[str] = None,
        collect_states: bool = True,
        log_handoffs: bool = False,
        epoch_trace: Optional[bool] = None,
        faults: Optional[FaultPlan] = None,
        ckpt_every: Optional[int] = None,
    ):
        self.scenario = scenario
        self.shards = resolve_shards(shards)
        self.mode = resolve_shard_mode(mode)
        self.collect_states = collect_states
        self.log_handoffs = log_handoffs
        self.epoch_trace = epoch_trace
        self.epochs = len(epoch_schedule(scenario.duration, scenario.epoch_s)) - 1
        self.fault: Optional[ShardFaultParams] = None
        self.fault_seed = 0
        if faults is not None and faults.shard_faults is not None:
            if not faults.shard_faults.empty:
                self.fault = faults.shard_faults
                self.fault_seed = faults.seed
        self.ckpt_every = resolve_ckpt_every(ckpt_every)
        self.phase_timeout = resolve_phase_timeout()
        self.max_recoveries = resolve_max_recoveries()
        self._phase_walls: deque = deque(maxlen=32)
        self._last_ckpt_epoch = -1

    def run(self) -> ShardRunResult:
        if self.mode == "process" and self.shards > 1:
            return self._run_process()
        return self._run_inline()

    # -- checkpoint barrier (shared by both modes) ------------------------

    def _ckpt_due(self, epoch: int) -> bool:
        return (
            self.ckpt_every > 0
            and epoch > 0
            and epoch % self.ckpt_every == 0
            and epoch > self._last_ckpt_epoch
        )

    def _commit_barrier(
        self,
        infos: List[dict],
        epoch: int,
        migrations: List[list],
        offers: List[list],
        ckpt_dir: pathlib.Path,
        ops: Dict[str, float],
        pc0: float,
    ) -> None:
        """Publish the barrier: pending inboxes, then the manifest.

        The manifest is written last, so a crash anywhere before it
        leaves the previous consistent barrier in force.
        """
        pending = {
            "epoch": epoch,
            "migrations": [handoff.encode_records(m) for m in migrations],
            "offers": [handoff.encode_records(o) for o in offers],
        }
        pending_bytes = write_blob(ckpt_dir / pending_name(epoch), pending)
        manifest = {
            "schema": CKPT_SCHEMA,
            "epoch": epoch,
            "shards": self.shards,
            "seed": self.scenario.seed,
            "wall": _time.time(),
            "files": {
                str(info["shard"]): shard_ckpt_name(info["shard"], epoch)
                for info in infos
            },
            "pending": pending_name(epoch),
            "bytes": int(sum(i["bytes"] for i in infos)) + pending_bytes,
        }
        write_manifest(ckpt_dir, manifest)
        keep = set(manifest["files"].values()) | {manifest["pending"]}
        for path in ckpt_dir.glob("*.bin"):
            if path.name not in keep:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
        self._last_ckpt_epoch = epoch
        ops["ckpt_barriers"] += 1
        ops["ckpt_pending_bytes"] += pending_bytes
        ops["ckpt_barrier_wall"] += _time.perf_counter() - pc0

    # -- inline mode ------------------------------------------------------

    def _run_inline(self) -> ShardRunResult:
        shards = self.shards
        fault = self.fault
        target = (
            target_shard(fault, self.fault_seed, shards)
            if fault is not None
            else None
        )
        ckpt_dir = checkpoint_dir() if self.ckpt_every > 0 else None
        ops = _empty_ops()
        runtimes = [
            ShardRuntime(
                self.scenario,
                k,
                shards,
                log_handoffs=self.log_handoffs,
                epoch_trace=self.epoch_trace,
            )
            for k in range(shards)
        ]
        duration = runtimes[0].barriers[-1]
        migrations: List[list] = [[] for _ in range(shards)]
        offers: List[list] = [[] for _ in range(shards)]
        wall_phase = wall_handoff = 0.0
        with ExitStack() as stack:
            for k, runtime in enumerate(runtimes):
                stack.enter_context(
                    maybe_heartbeat(
                        "shard %d/%d" % (k, shards),
                        duration,
                        lambda rt=runtime: (rt.barriers[rt.epochs_done], rt.hits),
                        file_stem="shard-%d" % k,
                        extra=lambda rt=runtime: {
                            "epoch": rt.epochs_done,
                            "epochs": rt.epochs,
                        },
                    )
                )
            for epoch in range(self.epochs):
                if ckpt_dir is not None and self._ckpt_due(epoch):
                    pc0 = _time.perf_counter()
                    infos = [
                        rt.write_checkpoint(epoch, ckpt_dir) for rt in runtimes
                    ]
                    self._commit_barrier(
                        infos, epoch, migrations, offers, ckpt_dir, ops, pc0
                    )
                if fault is not None:
                    if crash_now(
                        fault, self.fault_seed, target, shards, epoch, 0
                    ):
                        raise InjectedShardCrash(
                            "injected crash of shard %d at epoch %d "
                            "(inline mode has no recovery; use mode='process')"
                            % (target, epoch)
                        )
                    stall = stall_seconds(
                        fault, self.fault_seed, target, shards, epoch, 0
                    )
                    if stall > 0:
                        _time.sleep(stall)
                last = epoch == self.epochs - 1
                t0 = _time.perf_counter()
                outs_a = [
                    rt.run_phase_a(epoch, migrations[k], offers[k], last)
                    for k, rt in enumerate(runtimes)
                ]
                t1 = _time.perf_counter()
                if fault is not None:
                    if corrupt_now(
                        fault, self.fault_seed, target, shards, epoch, 0
                    ):
                        corrupt_outbox(fault, outs_a[target])
                    for out in outs_a:
                        handoff.validate_outbox(out)
                # X1: probes + feedbacks to sensor owners, migrations to
                # each walker's next owner.
                sensor_in = _route(outs_a, shards)
                migrations, probes_in, feedbacks_in = _split_sensor_in(
                    sensor_in, shards
                )
                t2 = _time.perf_counter()
                outs_b = [
                    rt.run_phase_b(epoch, feedbacks_in[k], probes_in[k])
                    for k, rt in enumerate(runtimes)
                ]
                t3 = _time.perf_counter()
                if fault is not None:
                    for out in outs_b:
                        handoff.validate_outbox(out)
                # X2: offers buffered for the next epoch's phase A.
                offers = _route(outs_b, shards) if not last else [[] for _ in range(shards)]
                wall_phase += (t1 - t0) + (t3 - t2)
                wall_handoff += (t2 - t1) + (_time.perf_counter() - t3)
            results = [rt.finalize(self.collect_states) for rt in runtimes]
        return _merge_results(
            self.scenario,
            shards,
            self.mode,
            self.epochs,
            results,
            wall_phase,
            wall_handoff,
            self.collect_states,
            self.log_handoffs,
            ops=ops,
        )

    # -- process mode -----------------------------------------------------

    def _run_process(self) -> ShardRunResult:
        shards = self.shards
        ckpt_dir = checkpoint_dir() if self.ckpt_every > 0 else None
        ops = _empty_ops()
        walls = {"phase": 0.0, "handoff": 0.0}
        incarnation = 0
        start_epoch = 0
        migrations: List[list] = [[] for _ in range(shards)]
        offers: List[list] = [[] for _ in range(shards)]
        restore_paths: Optional[Dict[int, pathlib.Path]] = None
        while True:
            parents, procs = self._spawn_all(incarnation, restore_paths)
            try:
                results = self._drive_process(
                    parents, procs, start_epoch, migrations, offers, ckpt_dir,
                    ops, walls,
                )
            except ShardCrash as crash:
                self._kill_procs(procs, parents)
                ops["crashes"] += 1
                append_ops_event(
                    "shard.crash",
                    shard=crash.shard_id,
                    epoch=crash.epoch,
                    phase=crash.phase,
                    reason=crash.reason,
                    exitcode=crash.exitcode,
                )
                if ops["crashes"] > self.max_recoveries:
                    raise RuntimeError(
                        "recovery budget exhausted (%d recoveries): %s"
                        % (self.max_recoveries, crash)
                    ) from crash
                rec0 = _time.perf_counter()
                (
                    start_epoch,
                    migrations,
                    offers,
                    restore_paths,
                ) = self._load_recovery_point(ckpt_dir)
                ops["rollback_epochs"] += max(0, crash.epoch - start_epoch)
                incarnation += 1
                ops["respawns"] += shards
                append_ops_event(
                    "shard.respawn",
                    shards=shards,
                    epoch=start_epoch,
                    incarnation=incarnation,
                    from_checkpoint=restore_paths is not None,
                )
                ops["recovery_wall"] += _time.perf_counter() - rec0
                continue
            except BaseException:
                self._kill_procs(procs, parents)
                raise
            self._shutdown_procs(procs, parents)
            break
        return _merge_results(
            self.scenario,
            shards,
            self.mode,
            self.epochs,
            results,
            walls["phase"],
            walls["handoff"],
            self.collect_states,
            self.log_handoffs,
            ops=ops,
        )

    def _spawn_all(
        self,
        incarnation: int,
        restore_paths: Optional[Dict[int, pathlib.Path]],
    ) -> Tuple[list, list]:
        parents = []
        procs = []
        for k in range(self.shards):
            parent, child = mp.Pipe()
            proc = mp.Process(
                target=_shard_worker,
                args=(
                    child,
                    self.scenario,
                    k,
                    self.shards,
                    self.collect_states,
                    self.log_handoffs,
                    self.epoch_trace,
                    self.fault,
                    self.fault_seed,
                    incarnation,
                    str(restore_paths[k]) if restore_paths else None,
                ),
                daemon=True,
            )
            proc.start()
            child.close()
            parents.append(parent)
            procs.append(proc)
        return parents, procs

    def _drive_process(
        self,
        parents: list,
        procs: list,
        start_epoch: int,
        migrations: List[list],
        offers: List[list],
        ckpt_dir: Optional[pathlib.Path],
        ops: Dict[str, float],
        walls: Dict[str, float],
    ) -> List[dict]:
        """Step epochs over the pipes; raises :class:`ShardCrash` on any
        recoverable failure, returns the finalise payloads otherwise."""
        shards = self.shards
        for epoch in range(start_epoch, self.epochs):
            if ckpt_dir is not None and self._ckpt_due(epoch):
                pc0 = _time.perf_counter()
                for k in range(shards):
                    parents[k].send(("ckpt", epoch, str(ckpt_dir)))
                infos = [
                    self._recv(parents[k], procs[k], k, epoch, "ckpt")
                    for k in range(shards)
                ]
                self._commit_barrier(
                    infos, epoch, migrations, offers, ckpt_dir, ops, pc0
                )
            last = epoch == self.epochs - 1
            t0 = _time.perf_counter()
            for k in range(shards):
                parents[k].send(("a", epoch, migrations[k], offers[k], last))
            outs_a = [
                self._recv(parents[k], procs[k], k, epoch, "a")
                for k in range(shards)
            ]
            t1 = _time.perf_counter()
            self._phase_walls.append(t1 - t0)
            self._validate_outboxes(outs_a, procs, epoch, "a")
            sensor_in = _route(outs_a, shards)
            migrations, probes_in, feedbacks_in = _split_sensor_in(
                sensor_in, shards
            )
            t2 = _time.perf_counter()
            for k in range(shards):
                parents[k].send(("b", epoch, feedbacks_in[k], probes_in[k]))
            outs_b = [
                self._recv(parents[k], procs[k], k, epoch, "b")
                for k in range(shards)
            ]
            t3 = _time.perf_counter()
            self._phase_walls.append(t3 - t2)
            self._validate_outboxes(outs_b, procs, epoch, "b")
            offers = (
                _route(outs_b, shards) if not last else [[] for _ in range(shards)]
            )
            walls["phase"] += (t1 - t0) + (t3 - t2)
            walls["handoff"] += (t2 - t1) + (_time.perf_counter() - t3)
        for k in range(shards):
            parents[k].send(("fin",))
        return [
            self._recv(parents[k], procs[k], k, self.epochs, "fin")
            for k in range(shards)
        ]

    def _validate_outboxes(
        self, outs: List[dict], procs: list, epoch: int, phase: str
    ) -> None:
        """Receiver-side schema check: a torn or mangled batch is a
        shard crash (recoverable), never an applied record."""
        for k, out in enumerate(outs):
            try:
                handoff.validate_outbox(out)
            except CorruptHandoffError as exc:
                raise ShardCrash(
                    k, epoch, phase, "corrupt handoff: %s" % exc,
                    procs[k].exitcode,
                )

    def _phase_deadline(self) -> float:
        """How long a single phase reply may take before the shard is
        declared hung (explicit env override, else adaptive from the
        recent phase-wall window)."""
        if self.phase_timeout is not None:
            return self.phase_timeout
        if not self._phase_walls:
            return FIRST_PHASE_DEADLINE_S
        mean = sum(self._phase_walls) / len(self._phase_walls)
        return max(DEADLINE_FLOOR_S, DEADLINE_FACTOR * mean)

    def _recv(self, parent, proc, shard_id: int, epoch: int, phase: str):
        """One reply off a shard pipe, with crash + hang detection."""
        deadline = self._phase_deadline()
        t0 = _time.perf_counter()
        while True:
            try:
                ready = parent.poll(0.05)
            except (OSError, EOFError) as exc:  # pragma: no cover - race
                raise ShardCrash(
                    shard_id, epoch, phase, "pipe failed: %s" % exc,
                    proc.exitcode,
                )
            if ready:
                try:
                    status, payload = parent.recv()
                except (EOFError, OSError) as exc:
                    # Reap briefly so the crash event carries the real
                    # exitcode (e.g. the injected-crash status 86).
                    proc.join(timeout=1.0)
                    raise ShardCrash(
                        shard_id, epoch, phase, "pipe closed: %s" % exc,
                        proc.exitcode,
                    )
                if status != "ok":
                    raise RuntimeError(
                        "shard %d failed:\n%s" % (shard_id, payload)
                    )
                return payload
            if not proc.is_alive():
                # Drain a reply the shard may have flushed before dying.
                if parent.poll(0.2):
                    continue
                raise ShardCrash(
                    shard_id, epoch, phase, "process died", proc.exitcode
                )
            if _time.perf_counter() - t0 > deadline:
                raise ShardCrash(
                    shard_id,
                    epoch,
                    phase,
                    "phase deadline %.1fs exceeded" % deadline,
                    None,
                )

    def _load_recovery_point(
        self, ckpt_dir: Optional[pathlib.Path]
    ) -> Tuple[int, List[list], List[list], Optional[Dict[int, pathlib.Path]]]:
        """The barrier to roll back to: the manifest's, or scratch."""
        shards = self.shards
        scratch = (
            0,
            [[] for _ in range(shards)],
            [[] for _ in range(shards)],
            None,
        )
        if ckpt_dir is None:
            self._last_ckpt_epoch = -1
            return scratch
        try:
            manifest = load_manifest(ckpt_dir)
            if manifest is None:
                self._last_ckpt_epoch = -1
                return scratch
            if (
                manifest["shards"] != shards
                or manifest["seed"] != self.scenario.seed
            ):
                raise CheckpointError(
                    "manifest is for shards=%r seed=%r, not this run"
                    % (manifest["shards"], manifest["seed"])
                )
            pending = read_blob(ckpt_dir / manifest["pending"])
            migrations = [
                handoff.decode_records(b) for b in pending["migrations"]
            ]
            offers = [handoff.decode_records(b) for b in pending["offers"]]
            if len(migrations) != shards or len(offers) != shards:
                raise CheckpointError("pending inboxes have wrong shard count")
            restore = {
                k: ckpt_dir / manifest["files"][str(k)] for k in range(shards)
            }
        except (CheckpointError, CorruptHandoffError, KeyError, TypeError) as exc:
            append_ops_event("shard.ckpt_invalid", reason=str(exc))
            self._last_ckpt_epoch = -1
            return scratch
        self._last_ckpt_epoch = int(manifest["epoch"])
        return int(manifest["epoch"]), migrations, offers, restore

    @staticmethod
    def _kill_procs(procs: list, parents: list) -> None:
        """Recovery teardown: deliberately violent, children first so
        healthy shards die by signal instead of surfacing pipe errors."""
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - SIGTERM ignored
                proc.kill()
                proc.join(timeout=5.0)
        for parent in parents:
            try:
                parent.close()
            except OSError:  # pragma: no cover
                pass

    @staticmethod
    def _shutdown_procs(
        procs: list, parents: list, join_timeout_s: float = 30.0
    ) -> None:
        """Normal-path shutdown with escalation: join, then terminate,
        then kill — a shard that outlives the join is surfaced as a
        ``shard.shutdown_kill`` event instead of silently leaking."""
        for parent in parents:
            try:
                parent.close()
            except OSError:  # pragma: no cover
                pass
        for k, proc in enumerate(procs):
            proc.join(timeout=join_timeout_s)
            if not proc.is_alive():
                continue
            proc.terminate()
            proc.join(timeout=5.0)
            escalation = "terminate"
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
                escalation = "kill"
            append_ops_event(
                "shard.shutdown_kill",
                shard=k,
                escalation=escalation,
                exitcode=proc.exitcode,
            )


def run_sharded(
    scenario: ShardScenario,
    shards: Optional[int] = None,
    mode: Optional[str] = None,
    collect_states: bool = True,
    log_handoffs: bool = False,
    epoch_trace: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
    ckpt_every: Optional[int] = None,
) -> ShardRunResult:
    """One-call front door: resolve knobs, run, return the result."""
    return ShardedCitySim(
        scenario,
        shards=shards,
        mode=mode,
        collect_states=collect_states,
        log_handoffs=log_handoffs,
        epoch_trace=epoch_trace,
        faults=faults,
        ckpt_every=ckpt_every,
    ).run()
