"""Shard fault tolerance: checkpoint, crash, recover, same digest.

The contract under test, stated once: a process-mode sharded run that
loses a shard mid-flight — killed, hung, or handing off garbage — must
recover from the last consistent epoch barrier and finish with a
``shardsim.*`` digest **bit-identical** to an uninterrupted run.  The
machinery (epoch-barrier checkpoints, crash detection, deterministic
replay) lives in :mod:`repro.sim.shards.checkpoint` and
:mod:`repro.sim.shards.engine`; the injectors in
:mod:`repro.faults.shards`.
"""

import json
import pathlib
import time

import pytest

from repro.faults.plan import FaultPlan
from repro.faults.shards import (
    SHARD_CRASH_EXIT_CODE,
    InjectedShardCrash,
    ShardFaultParams,
    target_shard,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import (
    OPS_EVENTS_FILE,
    append_ops_event,
    fleet_snapshot,
    ops_events_path,
    read_ops_events,
    render_top,
)
from repro.sim.shards import ShardScenario, engine, run_sharded
from repro.sim.shards.checkpoint import (
    CKPT_EVERY_ENV,
    CheckpointError,
    checkpoint_dir,
    load_manifest,
    read_blob,
    resolve_ckpt_every,
    write_blob,
)
from repro.sim.shards.engine import ShardedCitySim
from repro.sim.shards.handoff import CorruptHandoffError
from repro.sim.shards.shard import ShardRuntime

# 36 epochs (180 s / 5 s), small enough for process-mode tests, big
# enough that a crash at epoch 18 replays real barriers.
SCENARIO = ShardScenario(
    stations=80, sensors=10, duration=180.0, seed=13, size_m=360.0
)
CRASH_EPOCH = 18
CKPT_EVERY = 6

_ENV_KEYS = (
    "REPRO_ARTIFACT_DIR",
    "REPRO_HEARTBEAT",
    "REPRO_EPOCH_TRACE",
    CKPT_EVERY_ENV,
)


@pytest.fixture()
def artifact_dir(tmp_path, monkeypatch):
    for key in _ENV_KEYS:
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture(scope="module")
def clean_digest():
    """The uninterrupted baseline every recovery test must reproduce."""
    return run_sharded(SCENARIO, shards=4, mode="inline").digest()


def _crash_plan(**kwargs):
    kwargs.setdefault("crash_epoch", CRASH_EPOCH)
    return FaultPlan(seed=SCENARIO.seed, shard_faults=ShardFaultParams(**kwargs))


# -- knob resolution ---------------------------------------------------------


class TestKnobs:
    def test_ckpt_every(self, monkeypatch):
        monkeypatch.delenv(CKPT_EVERY_ENV, raising=False)
        assert resolve_ckpt_every() == 0
        assert resolve_ckpt_every(5) == 5
        monkeypatch.setenv(CKPT_EVERY_ENV, "9")
        assert resolve_ckpt_every() == 9
        assert resolve_ckpt_every(2) == 2
        with pytest.raises(ValueError):
            resolve_ckpt_every(-1)

    def test_phase_timeout(self):
        # The hang deadline adapts to measured phase walls: a fixed
        # first deadline, then 25x the recent mean, never below a floor.
        sim = ShardedCitySim(SCENARIO, shards=2)
        assert sim._phase_deadline() == engine.FIRST_PHASE_DEADLINE_S
        sim._phase_walls.extend([0.01] * 4)
        assert sim._phase_deadline() == engine.DEADLINE_FLOOR_S
        sim._phase_walls.extend([10.0] * 4)
        assert sim._phase_deadline() == pytest.approx(
            engine.DEADLINE_FACTOR * (0.04 + 40.0) / 8
        )

    def test_fault_params_validation(self):
        with pytest.raises(ValueError):
            ShardFaultParams(crash_epoch=-1)
        with pytest.raises(ValueError):
            ShardFaultParams(corrupt_epoch=3, corrupt_kind="nonsense")
        assert ShardFaultParams().empty
        assert not ShardFaultParams(stall_epoch=2, stall_s=5.0).empty

    def test_target_shard_deterministic(self):
        params = ShardFaultParams(crash_epoch=1)
        assert target_shard(params, 13, 4) == target_shard(params, 13, 4)
        pinned = ShardFaultParams(crash_epoch=1, shard=6)
        assert target_shard(pinned, 13, 4) == 2

    def test_fault_plan_from_dict(self):
        plan = FaultPlan.from_dict(
            {"seed": 7, "shard_faults": {"crash_epoch": 12, "shard": 1}}
        )
        assert plan.shard_faults.crash_epoch == 12
        assert plan.shard_faults.shard == 1
        assert not plan.empty


# -- checkpoint primitives ---------------------------------------------------


class TestCheckpointBlobs:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        payload = {"epoch": 4, "rows": [(1.0, 2.0)], "n": 7}
        nbytes = write_blob(path, payload)
        assert nbytes == path.stat().st_size
        assert read_blob(path) == payload

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "blob.bin"
        write_blob(path, {"x": 1})
        blob = bytearray(path.read_bytes())
        blob[9] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            read_blob(path)
        path.write_bytes(b"junk")
        with pytest.raises(CheckpointError, match="magic"):
            read_blob(path)
        with pytest.raises(CheckpointError, match="unreadable"):
            read_blob(tmp_path / "absent.bin")

    def test_registry_snapshot_restores_in_place(self):
        reg = MetricsRegistry()
        reg.inc("shardsim.hits", 3)
        snap = reg.to_dict()
        reg.inc("shardsim.hits", 10)
        assert reg.load_snapshot(snap) is reg
        assert reg.to_dict()["counters"]["shardsim.hits"] == 3


class TestRuntimeRoundtrip:
    def test_checkpoint_restore_resumes_identically(self, artifact_dir):
        """Step one shard to a barrier, checkpoint, restore into a fresh
        runtime, and finish both — the finalize payloads must match."""
        scenario = ShardScenario(
            stations=40, sensors=6, duration=120.0, seed=5, size_m=360.0
        )

        def step(rt, epoch, offers):
            """One epoch with the coordinator's routing loop, single
            shard: phase A records feed phase B, offers buffer an epoch."""
            last = epoch == rt.epochs - 1
            recs = rt.run_phase_a(epoch, [], offers, last).get(0, [])
            probes = [r for r in recs if r[0] == "p"]
            feeds = [r for r in recs if r[0] == "f"]
            return rt.run_phase_b(epoch, feeds, probes).get(0, [])

        original = ShardRuntime(scenario, 0, 1)
        offers = []
        for epoch in range(10):
            offers = step(original, epoch, offers)
        info = original.write_checkpoint(10, artifact_dir)
        assert info["bytes"] > 0
        pending_offers = list(offers)

        restored = ShardRuntime(scenario, 0, 1)
        restored.restore_file(pathlib.Path(info["path"]))
        assert restored.epochs_done == 10
        payloads = []
        for rt in (original, restored):
            offers = list(pending_offers)
            for epoch in range(10, rt.epochs):
                offers = step(rt, epoch, offers)
            payloads.append(rt.finalize(collect_states=True))
        a, b = payloads
        assert a["walker_rows"] == b["walker_rows"]
        assert a["hunter_states"] == b["hunter_states"]
        assert a["summary"] == b["summary"]
        # Timers and shardops accounting legitimately differ (wall clock,
        # and the original paid for the checkpoint write); the workload
        # space must not.
        def sim_counters(payload):
            return {
                k: v
                for k, v in payload["metrics"]["counters"].items()
                if k.startswith("shardsim.")
            }

        assert sim_counters(a) == sim_counters(b)

    def test_restore_rejects_mismatched_runtime(self, artifact_dir):
        scenario = ShardScenario(
            stations=40, sensors=6, duration=120.0, seed=5, size_m=360.0
        )
        rt = ShardRuntime(scenario, 0, 1)
        rt.run_phase_a(0, [], [])
        rt.run_phase_b(0, [], [])
        info = rt.write_checkpoint(1, artifact_dir)
        other = ShardRuntime(
            ShardScenario(
                stations=40, sensors=6, duration=120.0, seed=6, size_m=360.0
            ),
            0,
            1,
        )
        with pytest.raises(CheckpointError, match="seed"):
            other.restore_file(pathlib.Path(info["path"]))


# -- observe-only invariance -------------------------------------------------


class TestCheckpointInvariance:
    def test_inline_checkpointing_moves_no_digest(
        self, artifact_dir, clean_digest
    ):
        result = run_sharded(
            SCENARIO, shards=4, mode="inline", ckpt_every=CKPT_EVERY
        )
        assert result.digest() == clean_digest
        manifest = load_manifest(checkpoint_dir())
        assert manifest is not None
        assert manifest["epoch"] == 30  # last barrier at 6-epoch cadence
        assert manifest["shards"] == 4
        counters = result.metrics["counters"]
        assert counters["shardops.ckpt.barriers"] == 5
        assert counters["shardops.ckpt.writes"] == 20
        # A clean checkpointed run writes no anomaly events.
        assert not ops_events_path().exists()


class TestRecoveryPoint:
    def test_flipped_pending_byte_rolls_back_to_scratch(self, artifact_dir):
        """The pending inboxes sit inside one CRC frame: a committed
        ``pending-epoch-*.bin`` with one byte flipped is reported as an
        invalid checkpoint and recovery restarts from epoch 0."""
        run_sharded(SCENARIO, shards=4, mode="inline", ckpt_every=CKPT_EVERY)
        ckpt = checkpoint_dir()
        manifest = load_manifest(ckpt)
        sim = ShardedCitySim(SCENARIO, shards=4)
        epoch, migrations, offers, restore = sim._load_recovery_point(ckpt)
        assert epoch == manifest["epoch"] == 30
        assert len(migrations) == len(offers) == 4 and restore is not None

        pending = ckpt / manifest["pending"]
        blob = bytearray(pending.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        pending.write_bytes(bytes(blob))
        epoch, migrations, offers, restore = sim._load_recovery_point(ckpt)
        assert (epoch, migrations, offers, restore) == (
            0, [[]] * 4, [[]] * 4, None
        )
        (event,) = read_ops_events(ops_events_path())
        assert event["kind"] == "shard.ckpt_invalid"
        assert "CRC" in event["reason"]


# -- crash recovery ----------------------------------------------------------


class TestCrashRecovery:
    def test_recovers_bit_identical_from_checkpoint(
        self, artifact_dir, clean_digest
    ):
        result = run_sharded(
            SCENARIO,
            shards=4,
            mode="process",
            faults=_crash_plan(),
            ckpt_every=CKPT_EVERY,
        )
        assert result.digest() == clean_digest
        counters = result.metrics["counters"]
        assert counters["shardops.recovery.crashes"] == 1
        assert counters["shardops.recovery.respawns"] == 4
        # Barrier at epoch 18 commits just before the crash fires at
        # phase A of 18, so the rollback is zero epochs.
        assert counters["shardops.recovery.rollback_epochs"] == 0
        events = read_ops_events(ops_events_path())
        kinds = [e["kind"] for e in events]
        assert "shard.crash" in kinds and "shard.respawn" in kinds
        crash = next(e for e in events if e["kind"] == "shard.crash")
        assert crash["exitcode"] == SHARD_CRASH_EXIT_CODE
        respawn = next(e for e in events if e["kind"] == "shard.respawn")
        assert respawn["from_checkpoint"] is True

    def test_recovers_from_scratch_without_checkpoints(
        self, artifact_dir, clean_digest
    ):
        result = run_sharded(
            SCENARIO, shards=4, mode="process", faults=_crash_plan()
        )
        assert result.digest() == clean_digest
        counters = result.metrics["counters"]
        assert counters["shardops.recovery.crashes"] == 1
        assert counters["shardops.recovery.rollback_epochs"] == CRASH_EPOCH
        respawn = next(
            e
            for e in read_ops_events(ops_events_path())
            if e["kind"] == "shard.respawn"
        )
        assert respawn["from_checkpoint"] is False

    def test_stalled_shard_is_detected_and_recovered(
        self, artifact_dir, monkeypatch, clean_digest
    ):
        # Measured phases take milliseconds, so the adaptive deadline
        # sits at its floor; a 1 s floor catches the 30 s stall fast.
        monkeypatch.setattr(engine, "DEADLINE_FLOOR_S", 1.0)
        result = run_sharded(
            SCENARIO,
            shards=4,
            mode="process",
            faults=_crash_plan(crash_epoch=None, stall_epoch=CRASH_EPOCH,
                               stall_s=30.0),
            ckpt_every=CKPT_EVERY,
        )
        assert result.digest() == clean_digest
        assert result.metrics["counters"]["shardops.recovery.crashes"] == 1
        crash = next(
            e
            for e in read_ops_events(ops_events_path())
            if e["kind"] == "shard.crash"
        )
        assert "deadline" in crash["reason"]

    @pytest.mark.parametrize("kind", ["truncate", "mangle"])
    def test_corrupt_handoff_is_detected_and_recovered(
        self, artifact_dir, kind, clean_digest
    ):
        result = run_sharded(
            SCENARIO,
            shards=4,
            mode="process",
            faults=_crash_plan(crash_epoch=None, corrupt_epoch=CRASH_EPOCH,
                               corrupt_kind=kind),
            ckpt_every=CKPT_EVERY,
        )
        assert result.digest() == clean_digest
        assert result.metrics["counters"]["shardops.recovery.crashes"] == 1
        crash = next(
            e
            for e in read_ops_events(ops_events_path())
            if e["kind"] == "shard.crash"
        )
        assert "corrupt handoff" in crash["reason"]

    def test_recovery_budget_exhausted(self, artifact_dir, monkeypatch):
        monkeypatch.setattr(engine, "MAX_RECOVERIES", 1)
        with pytest.raises(RuntimeError, match="recovery budget exhausted \\(1 "):
            run_sharded(
                SCENARIO,
                shards=4,
                mode="process",
                faults=_crash_plan(crash_incarnations=5),
                ckpt_every=CKPT_EVERY,
            )

    def test_inline_crash_raises(self, artifact_dir):
        with pytest.raises(InjectedShardCrash, match="no recovery"):
            run_sharded(SCENARIO, shards=4, mode="inline", faults=_crash_plan())

    def test_inline_corrupt_raises(self, artifact_dir):
        with pytest.raises(CorruptHandoffError):
            run_sharded(
                SCENARIO,
                shards=4,
                mode="inline",
                faults=_crash_plan(crash_epoch=None, corrupt_epoch=4),
            )


# -- shutdown escalation -----------------------------------------------------


class _StubProc:
    def __init__(self, alive_polls, exitcode=-15):
        self._alive_polls = alive_polls
        self.exitcode = exitcode
        self.calls = []

    def is_alive(self):
        if self._alive_polls > 0:
            self._alive_polls -= 1
            return True
        return False

    def join(self, timeout=None):
        self.calls.append(("join", timeout))

    def terminate(self):
        self.calls.append(("terminate", None))

    def kill(self):
        self.calls.append(("kill", None))


class TestShutdownEscalation:
    def test_clean_join_leaves_no_events(self, artifact_dir):
        proc = _StubProc(alive_polls=0)
        ShardedCitySim._shutdown_procs([proc], [], join_timeout_s=0.01)
        assert ("terminate", None) not in proc.calls
        assert not ops_events_path().exists()

    def test_terminate_escalation_is_evented(self, artifact_dir):
        proc = _StubProc(alive_polls=1)
        ShardedCitySim._shutdown_procs([proc], [], join_timeout_s=0.01)
        assert ("terminate", None) in proc.calls
        assert ("kill", None) not in proc.calls
        (event,) = read_ops_events(ops_events_path())
        assert event["kind"] == "shard.shutdown_kill"
        assert event["escalation"] == "terminate"

    def test_kill_escalation_is_evented(self, artifact_dir):
        proc = _StubProc(alive_polls=2, exitcode=-9)
        ShardedCitySim._shutdown_procs([proc], [], join_timeout_s=0.01)
        assert ("kill", None) in proc.calls
        (event,) = read_ops_events(ops_events_path())
        assert event["escalation"] == "kill"
        assert event["exitcode"] == -9


# -- pipe-failure reporting in the shard worker ------------------------------


class _BrokenConn:
    """recv serves one phase-A command, every send raises."""

    def __init__(self):
        self.sends = 0

    def recv(self):
        return ("a", 0, [], [], False)

    def send(self, payload):
        self.sends += 1
        raise BrokenPipeError("pipe gone")

    def close(self):
        pass


class TestWorkerPipeFailure:
    def test_pipe_error_is_evented_and_reraised(self, artifact_dir):
        from repro.sim.shards.engine import _shard_worker

        scenario = ShardScenario(
            stations=20, sensors=4, duration=30.0, seed=3, size_m=360.0
        )
        conn = _BrokenConn()
        with pytest.raises(BrokenPipeError):
            _shard_worker(conn, scenario, 0, 1, None, False, False)
        # Both the "ok" reply and the "err" report failed...
        assert conn.sends == 2
        # ...so the worker left the breadcrumb the coordinator can't get.
        (event,) = read_ops_events(ops_events_path())
        assert event["kind"] == "shard.pipe_error"
        assert event["shard"] == 0


# -- recovery-aware observability --------------------------------------------


class TestRecoveryObservability:
    def _stalled_shard_file(self, telemetry, now):
        telemetry.mkdir(parents=True, exist_ok=True)
        records = [
            {"wall": now - 120.0, "spec": "shard 1/4", "sim_time": 0.0,
             "fraction": 0.0, "hits": 0, "done": False, "epoch": 0,
             "epochs": 36, "seq": i}
            for i in range(3)
        ]
        with open(telemetry / "shard-1.jsonl", "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")

    def test_zero_epoch_stall_suppressed_during_recovery(self, tmp_path):
        now = time.time()
        telemetry = tmp_path / "telemetry"
        self._stalled_shard_file(telemetry, now)
        append_ops_event(
            "shard.crash", base=tmp_path, shard=1, epoch=18, phase="a",
            reason="process died", exitcode=SHARD_CRASH_EXIT_CODE,
        )
        append_ops_event(
            "shard.respawn", base=tmp_path, shards=4, epoch=18,
            incarnation=1, from_checkpoint=True,
        )
        doc = fleet_snapshot(telemetry, stall_after_s=30.0, now=now)
        (row,) = doc["shards"]
        assert row["stalled"] is False
        assert row["recovering"] is True
        assert doc["recovery"]["active"] is True
        assert doc["recovery"]["crashes"] == 1
        assert doc["recovery"]["crashes_by_shard"] == {"1": 1}
        assert doc["health"]["healthy"] is True
        rendered = render_top(doc)
        assert "recoveries 1 (1 crash(es), in flight)" in rendered

    def test_stale_recovery_does_not_suppress_stall(self, tmp_path):
        now = time.time()
        telemetry = tmp_path / "telemetry"
        self._stalled_shard_file(telemetry, now)
        with open(telemetry / OPS_EVENTS_FILE, "w") as fh:
            fh.write(json.dumps({
                "wall": now - 3600.0, "kind": "shard.crash", "shard": 1,
            }) + "\n")
        doc = fleet_snapshot(telemetry, stall_after_s=30.0, now=now)
        (row,) = doc["shards"]
        assert row["stalled"] is True
        assert doc["recovery"]["active"] is False
        assert doc["health"]["healthy"] is False

    def test_finished_recovery_is_not_in_flight(self, tmp_path):
        """Recent crash/respawn events no longer mean "in flight" once
        every shard's heartbeat file ends ``done``."""
        now = time.time()
        telemetry = tmp_path / "telemetry"
        telemetry.mkdir(parents=True)
        for shard in (0, 1):
            with open(telemetry / ("shard-%d.jsonl" % shard), "w") as fh:
                fh.write(json.dumps({
                    "wall": now - 1.0, "spec": "shard %d/2" % shard,
                    "sim_time": 60.0, "fraction": 1.0, "hits": 0,
                    "done": True, "epoch": 36, "epochs": 36, "seq": 0,
                }) + "\n")
        append_ops_event("shard.crash", base=tmp_path, shard=1, epoch=18)
        append_ops_event("shard.respawn", base=tmp_path, shards=2, epoch=18)
        doc = fleet_snapshot(telemetry, stall_after_s=30.0, now=now)
        assert doc["recovery"]["active"] is False
        assert doc["health"]["recovery_active"] is False
        assert doc["recovery"]["crashes"] == 1
        rendered = render_top(doc)
        assert "recoveries 1 (1 crash(es))" in rendered
        assert "in flight" not in rendered
