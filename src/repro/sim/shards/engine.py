"""The sharded city engine: one epoch loop + deterministic exchange.

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
either execution mode.  Both modes run the same epoch loop and the
same checkpoint barrier; they differ only in the transport that carries
the loop's commands to the shards, and every shard runs its commands
through :func:`_run_command`, the one place shard faults fire:

* ``inline`` — all shards stepped in this process (the default): each
  command runs on its shard as it is sent.  On one core, extra inline
  shards only add handoff work: a shard's epoch costs O(scans x
  candidate sensors) at any stripe width.
* ``process`` — one OS process per shard, exchanged over pipes.

**Fault tolerance** (process mode): with
``REPRO_SHARD_CKPT_EVERY=N`` every shard serialises its barrier state
to ``checkpoints/`` every N epochs and the coordinator commits a
manifest naming the last globally consistent barrier (see
:mod:`repro.sim.shards.checkpoint`).  The process transport detects
dead shards (pipe ``EOFError`` + exitcode polling), hung shards (a
per-phase deadline derived from recent phase walls), and corrupt
handoff batches
(:func:`~repro.sim.shards.handoff.validate_outbox` on every received
outbox); any of the three raises :class:`ShardCrash`, after which *all*
shards are torn down, respawned from the manifest barrier, and the run
replays — deterministically, so the recovered digest is bit-identical
to an uninterrupted run.  At most ``MAX_RECOVERIES`` (3) recoveries
are attempted; an ``("err", traceback)`` reply
is a deterministic bug, never retried.  Inline shards cannot be lost,
so inline mode never recovers: an injected crash or corrupt batch
raises.  All recovery accounting lands under stripped
``shardops.recovery.*`` / ``shardops.ckpt.*`` metrics and as
``telemetry/shardops-events.jsonl`` events — digests never move.

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
from repro.util.settings import parse_int_setting, resolve_int_env

SHARDS_ENV = "REPRO_SHARDS"
SHARD_MODE_ENV = "REPRO_SHARD_MODE"
SHARD_MODES = ("inline", "process")

#: How many crash recoveries to attempt before giving up.
MAX_RECOVERIES = 3

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


def _heartbeat(runtime: ShardRuntime):
    """Shard ``runtime``'s live-progress writer (a no-op unless
    ``REPRO_HEARTBEAT`` is set), in either execution mode."""
    return maybe_heartbeat(
        "shard %d/%d" % (runtime.shard_id, runtime.shards),
        runtime.barriers[-1],
        lambda: (runtime.barriers[runtime.epochs_done], runtime.hits),
        file_stem="shard-%d" % runtime.shard_id,
        extra=lambda: {"epoch": runtime.epochs_done, "epochs": runtime.epochs},
    )


def _run_command(
    runtime: ShardRuntime,
    msg: tuple,
    collect_states: bool,
    fault: Optional[ShardFaultParams],
    fault_seed: int,
    incarnation: int,
    in_worker: bool,
):
    """Run one coordinator command (``a``, ``b``, ``ckpt`` or ``fin``)
    on ``runtime`` and return its reply.

    The only place shard faults fire.  An injected crash kills a worker
    process outright; inline there is no process to lose, so it raises
    :class:`InjectedShardCrash` instead.
    """
    op = msg[0]
    if op == "a":
        _, epoch, migrations, offers, last = msg
        at = (fault, fault_seed, runtime.shard_id, runtime.shards, epoch, incarnation)
        if fault is not None:
            if crash_now(*at):
                if in_worker:
                    # Die like an OOM kill: no cleanup, no reply, a
                    # distinctive exitcode for the coordinator.
                    os._exit(SHARD_CRASH_EXIT_CODE)
                raise InjectedShardCrash(
                    "injected crash of shard %d at epoch %d "
                    "(inline mode has no recovery; use mode='process')"
                    % (runtime.shard_id, epoch)
                )
            stall = stall_seconds(*at)
            if stall > 0:
                _time.sleep(stall)
        out = runtime.run_phase_a(epoch, migrations, offers, last)
        if fault is not None and corrupt_now(*at):
            corrupt_outbox(fault, out)
        return out
    if op == "b":
        _, epoch, feedbacks, probes = msg
        return runtime.run_phase_b(epoch, feedbacks, probes)
    if op == "ckpt":
        _, epoch, directory = msg
        return runtime.write_checkpoint(epoch, pathlib.Path(directory))
    if op == "fin":
        return runtime.finalize(collect_states)
    raise RuntimeError("unknown shard command %r" % (op,))  # protocol bug guard


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
        with _heartbeat(runtime):
            while True:
                msg = conn.recv()
                reply = _run_command(
                    runtime, msg, collect_states, fault, fault_seed,
                    incarnation, in_worker=True,
                )
                conn.send(("ok", reply))
                if msg[0] == "fin":
                    return
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


class _InlineShards:
    """Inline transport: every shard is a runtime in this process, and
    each command runs on its shard as it is sent.

    Outboxes are validated only when a fault plan is armed: the check
    is per-record Python, and only an injected fault can produce a bad
    batch here.  There is no recovery, so a bad batch raises
    :class:`CorruptHandoffError`.
    """

    def __init__(self, sim: "ShardedCitySim"):
        self.sim = sim
        self.runtimes = [
            ShardRuntime(
                sim.scenario,
                k,
                sim.shards,
                log_handoffs=sim.log_handoffs,
                epoch_trace=sim.epoch_trace,
            )
            for k in range(sim.shards)
        ]
        self.replies: list = [None] * sim.shards
        with ExitStack() as stack:
            for runtime in self.runtimes:
                stack.enter_context(_heartbeat(runtime))
            self._heartbeats = stack.pop_all()

    def send(self, k: int, msg: tuple) -> None:
        sim = self.sim
        self.replies[k] = _run_command(
            self.runtimes[k], msg, sim.collect_states, sim.fault,
            sim.fault_seed, incarnation=0, in_worker=False,
        )

    def recv(self, k: int, epoch: int, phase: str):
        reply = self.replies[k]
        if self.sim.fault is not None and phase in ("a", "b"):
            handoff.validate_outbox(reply)
        return reply

    def close(self) -> None:
        self._heartbeats.close()

    kill = close


class _ProcessShards:
    """Process transport: one OS process per shard, commands and
    replies over pipes, with crash, hang and corrupt-batch detection.
    Any of the three raises :class:`ShardCrash`."""

    def __init__(
        self,
        sim: "ShardedCitySim",
        incarnation: int,
        restore_paths: Optional[Dict[int, pathlib.Path]],
    ):
        self.sim = sim
        self.parents: list = []
        self.procs: list = []
        for k in range(sim.shards):
            parent, child = mp.Pipe()
            proc = mp.Process(
                target=_shard_worker,
                args=(
                    child,
                    sim.scenario,
                    k,
                    sim.shards,
                    sim.collect_states,
                    sim.log_handoffs,
                    sim.epoch_trace,
                    sim.fault,
                    sim.fault_seed,
                    incarnation,
                    str(restore_paths[k]) if restore_paths else None,
                ),
                daemon=True,
            )
            proc.start()
            child.close()
            self.parents.append(parent)
            self.procs.append(proc)

    def send(self, k: int, msg: tuple) -> None:
        self.parents[k].send(msg)

    def recv(self, k: int, epoch: int, phase: str):
        """One reply off shard ``k``'s pipe.  A torn or mangled outbox
        is a shard crash (recoverable), never an applied record."""
        parent, proc = self.parents[k], self.procs[k]
        deadline = self.sim._phase_deadline()
        t0 = _time.perf_counter()
        while True:
            try:
                ready = parent.poll(0.05)
            except (OSError, EOFError) as exc:  # pragma: no cover - race
                raise ShardCrash(
                    k, epoch, phase, "pipe failed: %s" % exc, proc.exitcode
                )
            if ready:
                break
            if not proc.is_alive():
                # Drain a reply the shard may have flushed before dying.
                if parent.poll(0.2):
                    break
                raise ShardCrash(k, epoch, phase, "process died", proc.exitcode)
            if _time.perf_counter() - t0 > deadline:
                raise ShardCrash(
                    k, epoch, phase,
                    "phase deadline %.1fs exceeded" % deadline, None,
                )
        try:
            status, payload = parent.recv()
        except (EOFError, OSError) as exc:
            # Reap briefly so the crash event carries the real exitcode
            # (e.g. the injected-crash status 86).
            proc.join(timeout=1.0)
            raise ShardCrash(
                k, epoch, phase, "pipe closed: %s" % exc, proc.exitcode
            )
        if status != "ok":
            raise RuntimeError("shard %d failed:\n%s" % (k, payload))
        if phase in ("a", "b"):
            try:
                handoff.validate_outbox(payload)
            except CorruptHandoffError as exc:
                raise ShardCrash(
                    k, epoch, phase, "corrupt handoff: %s" % exc,
                    proc.exitcode,
                )
        return payload

    def close(self) -> None:
        ShardedCitySim._shutdown_procs(self.procs, self.parents)

    def kill(self) -> None:
        ShardedCitySim._kill_procs(self.procs, self.parents)


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
        self._phase_walls: deque = deque(maxlen=32)
        self._last_ckpt_epoch = -1

    def run(self) -> ShardRunResult:
        """Step every epoch over the shard transport.  On a
        :class:`ShardCrash` (process mode only) tear every shard down,
        roll back to the last committed barrier and replay from it."""
        shards = self.shards
        ckpt_dir = checkpoint_dir() if self.ckpt_every > 0 else None
        ops = _empty_ops()
        walls = {"phase": 0.0, "handoff": 0.0}
        incarnation = 0
        start_epoch, migrations, offers, restore_paths = self._scratch()
        while True:
            if self.mode == "process" and shards > 1:
                transport = _ProcessShards(self, incarnation, restore_paths)
            else:
                transport = _InlineShards(self)
            try:
                results = self._drive(
                    transport, start_epoch, migrations, offers, ckpt_dir,
                    ops, walls,
                )
            except ShardCrash as crash:
                transport.kill()
                ops["crashes"] += 1
                append_ops_event(
                    "shard.crash",
                    shard=crash.shard_id,
                    epoch=crash.epoch,
                    phase=crash.phase,
                    reason=crash.reason,
                    exitcode=crash.exitcode,
                )
                if ops["crashes"] > MAX_RECOVERIES:
                    raise RuntimeError(
                        "recovery budget exhausted (%d recoveries): %s"
                        % (MAX_RECOVERIES, crash)
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
                transport.kill()
                raise
            transport.close()
            break
        return self._merge_results(results, walls, ops)

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
        pending = {"epoch": epoch, "migrations": migrations, "offers": offers}
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

    # -- the epoch loop ---------------------------------------------------

    def _drive(
        self,
        transport,
        start_epoch: int,
        migrations: List[list],
        offers: List[list],
        ckpt_dir: Optional[pathlib.Path],
        ops: Dict[str, float],
        walls: Dict[str, float],
    ) -> List[dict]:
        """The epoch loop: step epochs from ``start_epoch`` over
        ``transport`` and return the finalise payloads, or raise
        :class:`ShardCrash` on any recoverable failure."""
        shards = self.shards
        for epoch in range(start_epoch, self.epochs):
            if ckpt_dir is not None and self._ckpt_due(epoch):
                pc0 = _time.perf_counter()
                infos = self._round(
                    transport, epoch, [("ckpt", epoch, str(ckpt_dir))] * shards
                )
                self._commit_barrier(
                    infos, epoch, migrations, offers, ckpt_dir, ops, pc0
                )
            last = epoch == self.epochs - 1
            t0 = _time.perf_counter()
            outs_a = self._round(
                transport,
                epoch,
                [("a", epoch, migrations[k], offers[k], last) for k in range(shards)],
            )
            t1 = _time.perf_counter()
            self._phase_walls.append(t1 - t0)
            # X1: probes + feedbacks to sensor owners, migrations to each
            # walker's next owner.
            migrations, probes_in, feedbacks_in = _split_sensor_in(
                _route(outs_a, shards), shards
            )
            t2 = _time.perf_counter()
            outs_b = self._round(
                transport,
                epoch,
                [("b", epoch, feedbacks_in[k], probes_in[k]) for k in range(shards)],
            )
            t3 = _time.perf_counter()
            self._phase_walls.append(t3 - t2)
            # X2: offers buffered for the next epoch's phase A.
            offers = (
                _route(outs_b, shards) if not last else [[] for _ in range(shards)]
            )
            walls["phase"] += (t1 - t0) + (t3 - t2)
            walls["handoff"] += (t2 - t1) + (_time.perf_counter() - t3)
        return self._round(transport, self.epochs, [("fin",)] * shards)

    @staticmethod
    def _round(transport, epoch: int, msgs: List[tuple]) -> list:
        """Send shard ``k`` the command ``msgs[k]``, then collect every
        reply in shard order."""
        for k, msg in enumerate(msgs):
            transport.send(k, msg)
        return [transport.recv(k, epoch, msg[0]) for k, msg in enumerate(msgs)]

    def _merge_results(
        self, results: List[dict], walls: Dict[str, float], ops: Dict[str, float]
    ) -> ShardRunResult:
        """Fold per-shard finalise payloads (in shard order) into one result."""
        scenario = self.scenario
        engine = MetricsRegistry()
        engine.gauge_set("shardops.shards", self.shards)
        engine.timer_add("shards.phase_wall", walls["phase"])
        engine.timer_add("shards.handoff_wall", walls["handoff"])
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
        merged = merge_snapshots(
            [r["metrics"] for r in results] + [engine.to_dict()]
        )
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
        if self.collect_states:
            walker_rows = {}
            hunter_states = {}
            for r in results:
                walker_rows.update(r["walker_rows"])
                hunter_states.update(r["hunter_states"])
        handoff_logs = None
        if self.log_handoffs:
            handoff_logs = {r["shard"]: r["handoff_log"] for r in results}
        return ShardRunResult(
            scenario,
            self.shards,
            self.mode,
            self.epochs,
            merged,
            summary,
            walker_rows,
            hunter_states,
            handoff_logs,
            walls["phase"],
            walls["handoff"],
        )

    # -- process mode: deadlines, rollback, teardown ---------------------

    def _phase_deadline(self) -> float:
        """How long a single phase reply may take before the shard is
        declared hung, adapted to the recent phase-wall window."""
        if not self._phase_walls:
            return FIRST_PHASE_DEADLINE_S
        mean = sum(self._phase_walls) / len(self._phase_walls)
        return max(DEADLINE_FLOOR_S, DEADLINE_FACTOR * mean)

    def _scratch(self) -> Tuple[int, List[list], List[list], None]:
        """Epoch 0 with empty inboxes and nothing to restore: where a run
        starts, and where it rolls back to without a usable checkpoint."""
        self._last_ckpt_epoch = -1
        shards = self.shards
        return 0, [[] for _ in range(shards)], [[] for _ in range(shards)], None

    def _load_recovery_point(
        self, ckpt_dir: Optional[pathlib.Path]
    ) -> Tuple[int, List[list], List[list], Optional[Dict[int, pathlib.Path]]]:
        """The barrier to roll back to: the manifest's, or scratch."""
        shards = self.shards
        if ckpt_dir is None:
            return self._scratch()
        try:
            manifest = load_manifest(ckpt_dir)
            if manifest is None:
                return self._scratch()
            if (
                manifest["shards"] != shards
                or manifest["seed"] != self.scenario.seed
            ):
                raise CheckpointError(
                    "manifest is for shards=%r seed=%r, not this run"
                    % (manifest["shards"], manifest["seed"])
                )
            pending = read_blob(ckpt_dir / manifest["pending"])
            migrations = [handoff.validate_batch(m) for m in pending["migrations"]]
            offers = [handoff.validate_batch(o) for o in pending["offers"]]
            if len(migrations) != shards or len(offers) != shards:
                raise CheckpointError("pending inboxes have wrong shard count")
            restore = {
                k: ckpt_dir / manifest["files"][str(k)] for k in range(shards)
            }
        except (CheckpointError, CorruptHandoffError, KeyError, TypeError) as exc:
            append_ops_event("shard.ckpt_invalid", reason=str(exc))
            return self._scratch()
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
