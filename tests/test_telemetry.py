"""Tests for live executor telemetry (repro.obs.telemetry).

The acceptance case from the issue rides at the bottom: a synthetic
silent worker (heartbeat file whose newest record is old and not done)
must be flagged by ``repro obs watch --once`` with a non-zero exit.
"""

import asyncio
import json
import time

import pytest

from repro.cli import main
from repro.obs.records import read_jsonl, telemetry_dir
from repro.obs.telemetry import (
    DEFAULT_INTERVAL_S,
    HeartbeatWriter,
    maybe_heartbeat,
    render_watch,
    resolve_heartbeat_interval,
    set_current_spec,
    watch_snapshot,
)
from repro.serve.events import ProbeEvent


def client_mac(index: int) -> str:
    """A locally administered MAC for test client ``index``."""
    return "02:5e:00:00:%02x:%02x" % ((index >> 8) & 0xFF, index & 0xFF)


class TestInterval:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
        assert resolve_heartbeat_interval() is None

    def test_truthy_uses_default(self, monkeypatch):
        for value in ("1", "on"):
            monkeypatch.setenv("REPRO_HEARTBEAT", value)
            assert resolve_heartbeat_interval() == DEFAULT_INTERVAL_S

    def test_numeric_is_seconds(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "2.5")
        assert resolve_heartbeat_interval() == 2.5

    def test_blank_false_words_and_zero_off(self, monkeypatch):
        for value in ("", "   ", "false", "off", "No", "0", "-0.0"):
            monkeypatch.setenv("REPRO_HEARTBEAT", value)
            assert resolve_heartbeat_interval() is None

    @pytest.mark.parametrize("value", ["soon", "-3", "nan", "inf", "1e400"])
    def test_bad_value_raises_naming_variable(self, monkeypatch, value):
        # A typo must not silently switch heartbeats off, and an
        # infinite interval would kill the heartbeat thread.
        monkeypatch.setenv("REPRO_HEARTBEAT", value)
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT"):
            resolve_heartbeat_interval()


class TestHeartbeatWriter:
    def test_writes_enter_and_done(self, tmp_path):
        progress = lambda: (150.0, 7)
        with HeartbeatWriter(
            "spec-a", 300.0, progress, interval_s=60.0, base_dir=tmp_path
        ) as hb:
            pass
        records = read_jsonl(hb.path)
        assert len(records) == 2
        first, last = records
        assert first["spec"] == "spec-a"
        assert first["fraction"] == 0.5
        assert first["hits"] == 7
        assert first["done"] is False
        assert last["done"] is True
        assert last["seq"] == 1

    def test_periodic_beats(self, tmp_path):
        with HeartbeatWriter(
            "spec-b", 10.0, lambda: (1.0, 0), interval_s=0.05,
            base_dir=tmp_path,
        ) as hb:
            time.sleep(0.3)
        records = read_jsonl(hb.path)
        assert len(records) >= 4  # enter + several beats + done

    def test_fraction_capped_at_one(self, tmp_path):
        with HeartbeatWriter(
            "spec-c", 100.0, lambda: (130.0, 1), interval_s=60.0,
            base_dir=tmp_path,
        ) as hb:
            pass
        assert all(r["fraction"] == 1.0 for r in read_jsonl(hb.path))

    def test_torn_progress_reuses_last(self, tmp_path):
        calls = {"n": 0}

        def progress():
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("dictionary changed size during iteration")
            return (42.0, 3)

        with HeartbeatWriter(
            "spec-d", 100.0, progress, interval_s=60.0, base_dir=tmp_path
        ) as hb:
            pass
        records = read_jsonl(hb.path)
        assert records[-1]["sim_time"] == 42.0
        assert records[-1]["hits"] == 3

    def test_maybe_heartbeat_gates_on_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
        ctx = maybe_heartbeat("x", 10.0, lambda: (0.0, 0))
        assert not isinstance(ctx, HeartbeatWriter)
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.5")
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        ctx = maybe_heartbeat("x", 10.0, lambda: (0.0, 0))
        assert isinstance(ctx, HeartbeatWriter)
        assert ctx.interval_s == 0.5

    def test_maybe_heartbeat_uses_current_spec_label(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_HEARTBEAT", "1")
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        set_current_spec("cityhunter/canteen:5")
        try:
            ctx = maybe_heartbeat(None, 10.0, lambda: (0.0, 0))
        finally:
            set_current_spec(None)
        assert ctx.spec_id == "cityhunter/canteen:5"

    def test_rotation_on_reentry(self, tmp_path):
        """A worker starting its next spec moves the previous file to
        ``.old`` so the watcher row only describes the current run."""
        kwargs = dict(interval_s=60.0, base_dir=tmp_path, file_stem="worker-1")
        with HeartbeatWriter("spec-1", 10.0, lambda: (5.0, 1), **kwargs) as hb:
            pass
        with HeartbeatWriter("spec-2", 10.0, lambda: (0.0, 0), **kwargs) as hb:
            pass
        records = read_jsonl(hb.path)
        assert {r["spec"] for r in records} == {"spec-2"}
        old = hb.path.with_name(hb.path.name + ".old")
        assert {r["spec"] for r in read_jsonl(old)} == {"spec-1"}
        # rows come only from the live file
        rows = watch_snapshot(tmp_path / "telemetry", now=time.time())
        assert len(rows) == 1 and rows[0]["spec"] == "spec-2"

    def test_extra_fields_merged_into_records(self, tmp_path):
        with HeartbeatWriter(
            "spec-e", 10.0, lambda: (1.0, 0), interval_s=60.0,
            base_dir=tmp_path, extra=lambda: {"epoch": 3, "epochs": 12},
        ) as hb:
            pass
        records = read_jsonl(hb.path)
        assert all(r["epoch"] == 3 and r["epochs"] == 12 for r in records)

    def test_extra_torn_read_skipped(self, tmp_path):
        def extra():
            raise RuntimeError("dictionary changed size during iteration")

        with HeartbeatWriter(
            "spec-f", 10.0, lambda: (1.0, 0), interval_s=60.0,
            base_dir=tmp_path, extra=extra,
        ) as hb:
            pass
        records = read_jsonl(hb.path)
        assert records and all("epoch" not in r for r in records)


def _write_worker(directory, pid, wall, done=False, spec="spec-x",
                  fraction=0.5):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"worker-{pid}.jsonl"
    record = {
        "wall": wall,
        "pid": pid,
        "spec": spec,
        "seq": 0,
        "sim_time": fraction * 300.0,
        "fraction": fraction,
        "hits": 4,
        "done": done,
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return path


class TestWatcher:
    def test_snapshot_rows(self, tmp_path):
        now = 1000.0
        _write_worker(tmp_path, 11, now - 5.0)
        _write_worker(tmp_path, 12, now - 120.0)
        _write_worker(tmp_path, 13, now - 120.0, done=True)
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        by_pid = {r["pid"]: r for r in rows}
        assert by_pid[11]["stalled"] is False
        assert by_pid[12]["stalled"] is True
        assert by_pid[13]["stalled"] is False  # done workers never stall
        assert by_pid[13]["done"] is True

    def test_torn_final_line_skipped(self, tmp_path):
        path = _write_worker(tmp_path, 21, 10.0)
        with open(path, "a") as fh:
            fh.write('{"wall": 99, "truncat')  # crashed mid-write
        records = read_jsonl(path)
        assert len(records) == 1
        assert records[0]["wall"] == 10.0

    def test_empty_dir(self, tmp_path):
        assert watch_snapshot(tmp_path, now=0.0) == []
        assert "no heartbeat files" in render_watch([], 60.0)

    def test_render_flags_stall(self, tmp_path):
        now = 1000.0
        _write_worker(tmp_path, 31, now - 500.0)
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        out = render_watch(rows, 60.0)
        assert "STALLED" in out
        assert "1 worker(s) stalled" in out

    def test_heartbeat_dir_under_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        assert telemetry_dir() == tmp_path / "telemetry"


class TestWatchCli:
    def test_once_flags_silent_worker(self, tmp_path, capsys):
        """Acceptance: a worker that went silent mid-run is flagged and
        ``obs watch --once`` exits non-zero."""
        _write_worker(tmp_path, 51, time.time() - 3600.0)
        rc = main(
            ["obs", "watch", "--once", "--dir", str(tmp_path),
             "--stall-after", "60"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "STALLED" in out

    def test_once_healthy_exits_zero(self, tmp_path, capsys):
        _write_worker(tmp_path, 52, time.time() - 1.0)
        _write_worker(tmp_path, 53, time.time() - 3600.0, done=True)
        rc = main(
            ["obs", "watch", "--once", "--dir", str(tmp_path),
             "--stall-after", "60"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "running" in out
        assert "done" in out


def _write_shard(directory, shard, walls, epoch=0, epochs=12, done=False):
    """A shard heartbeat file with one record per wall timestamp."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"shard-{shard}.jsonl"
    with open(path, "w") as fh:
        for seq, wall in enumerate(walls):
            fh.write(json.dumps({
                "wall": wall, "pid": 99, "spec": f"shards:{shard}",
                "seq": seq, "sim_time": 10.0 * seq, "fraction": 0.1 * seq,
                "hits": 0, "done": done and seq == len(walls) - 1,
                "epoch": epoch, "epochs": epochs,
            }) + "\n")
    return path


def _write_epochs(directory, shard, epochs, phase_s, t0=1000.0,
                  out_records=4):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"epochs-{shard}.jsonl"
    t = t0
    with open(path, "w") as fh:
        for epoch in range(epochs):
            for phase in ("a", "b"):
                t += phase_s
                fh.write(json.dumps({
                    "wall": t, "shard": shard, "shards": 2, "epoch": epoch,
                    "epochs": epochs, "phase": phase, "wall_s": phase_s,
                    "barrier_s": 0.01,
                    "in": {}, "out": {str(1 - shard): out_records},
                }) + "\n")
    return path


class TestZeroEpochStall:
    def test_heartbeating_but_wedged_shard_flagged(self, tmp_path):
        """A shard whose heartbeats keep coming but that never finished
        epoch 0 past the stall threshold counts as stalled."""
        now = 1000.0
        _write_shard(tmp_path, 0, [now - 300.0, now - 150.0, now - 1.0],
                     epoch=0)
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        assert rows[0]["stalled"] is True

    def test_young_zero_epoch_shard_not_flagged(self, tmp_path):
        now = 1000.0
        _write_shard(tmp_path, 0, [now - 10.0, now - 1.0], epoch=0)
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        assert rows[0]["stalled"] is False

    def test_progressing_shard_not_flagged(self, tmp_path):
        now = 1000.0
        _write_shard(tmp_path, 0, [now - 300.0, now - 1.0], epoch=5)
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        assert rows[0]["stalled"] is False
        assert "5/12" in render_watch(rows, 60.0)


class TestFleetSnapshot:
    def test_healthy_fleet(self, tmp_path):
        from repro.obs.telemetry import fleet_snapshot, render_top

        now = 1012.5
        _write_worker(tmp_path, 71, now - 2.0)
        _write_shard(tmp_path, 0, [now - 2.0], epoch=6)
        _write_shard(tmp_path, 1, [now - 2.0], epoch=6)
        _write_epochs(tmp_path, 0, epochs=6, phase_s=0.5)
        _write_epochs(tmp_path, 1, epochs=6, phase_s=0.6)
        doc = fleet_snapshot(tmp_path, stall_after_s=60.0, now=now)
        health = doc["health"]
        assert health["healthy"] is True
        assert health["problems"] == []
        assert health["straggler_ratio"] == pytest.approx(0.6 / 0.55)
        assert health["handoff_imbalance"] == pytest.approx(1.0)
        assert health["epochs_per_s"] > 0
        assert doc["epochs"]["0"]["epochs_done"] == 6
        # 6 epochs x 2 phases x 4 records per batch
        assert doc["epochs"]["0"]["handoff_out_records"] == 48
        out = render_top(doc)
        assert "health: OK" in out
        assert "1 worker(s), 2 shard(s)" in out

    def test_straggler_flagged(self, tmp_path):
        from repro.obs.telemetry import fleet_snapshot, render_top

        now = 2000.0
        _write_shard(tmp_path, 0, [now - 1.0], epoch=4)
        _write_shard(tmp_path, 1, [now - 1.0], epoch=4)
        _write_epochs(tmp_path, 0, epochs=4, phase_s=0.1)
        _write_epochs(tmp_path, 1, epochs=4, phase_s=1.0)  # 10x slower
        # at two shards max/median tops out just under 2 (median is the
        # midpoint), so gate tighter than the 4x default
        doc = fleet_snapshot(
            tmp_path, stall_after_s=3600.0, now=now, straggler_threshold=1.5
        )
        assert doc["health"]["healthy"] is False
        assert any("straggler" in p for p in doc["health"]["problems"])
        assert "health: DEGRADED" in render_top(doc)

    def test_handoff_imbalance_flagged(self, tmp_path):
        from repro.obs.telemetry import fleet_snapshot

        now = 2000.0
        _write_epochs(tmp_path, 0, epochs=4, phase_s=0.5, out_records=0)
        _write_epochs(tmp_path, 1, epochs=4, phase_s=0.5, out_records=100)
        doc = fleet_snapshot(
            tmp_path, stall_after_s=3600.0, now=now, imbalance_threshold=1.5
        )
        assert any("imbalance" in p for p in doc["health"]["problems"])

    def test_truncated_epoch_lines_tolerated(self, tmp_path):
        from repro.obs.telemetry import fleet_snapshot

        path = _write_epochs(tmp_path, 0, epochs=3, phase_s=0.5)
        with open(path, "a") as fh:
            fh.write('{"wall": 1, "shard": 0, "epoch": 3, "pha')
        (tmp_path / "epochs-1.jsonl").write_text("not json at all\n")
        doc = fleet_snapshot(tmp_path, stall_after_s=3600.0, now=2000.0)
        # the torn line and the garbage file both vanish, stats survive
        assert list(doc["epochs"]) == ["0"]
        assert doc["epochs"]["0"]["epochs_done"] == 3

    def test_empty_dir_is_healthy(self, tmp_path):
        from repro.obs.telemetry import fleet_snapshot, render_top

        doc = fleet_snapshot(tmp_path, now=0.0)
        assert doc["health"]["healthy"] is True
        assert "no heartbeat files yet" in render_top(doc)


def _write_serve(directory, pid, walls, committed=None, events=800,
                 shed_fraction=0.0, queue_depth=3, queue_max=256,
                 done=False):
    """A serve heartbeat file with one record per wall timestamp."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"serve-{pid}.jsonl"
    committed = committed or [events] * len(walls)
    with open(path, "w") as fh:
        for seq, (wall, c) in enumerate(zip(walls, committed)):
            last = seq == len(walls) - 1
            fh.write(json.dumps({
                "wall": wall, "pid": pid, "spec": "serve", "seq": seq,
                "sim_time": float(c), "fraction": c / max(1, events),
                "hits": 0, "done": done and last, "kind": "serve",
                "events": events, "committed": c,
                "probes_per_s": 12000.0, "queue_depth": queue_depth,
                "queue_max": queue_max, "shed": 0,
                "shed_fraction": shed_fraction, "p50_us": 40.0,
                "p99_us": 210.0, "events_failed": 0,
            }) + "\n")
    return path


class TestServeInterval:
    """The service heartbeats on ``REPRO_HEARTBEAT``, like the executor."""

    def _service(self, city, wigle):
        from repro.serve.core import RankingCore
        from repro.serve.service import RankingService

        return RankingService(
            RankingCore.seeded(
                wigle, city.heatmap, city.venues[0].region.center, seed=0
            )
        )

    def test_off_by_default(self, city, wigle, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
        assert self._service(city, wigle).heartbeat_interval is None

    def test_follows_repro_heartbeat(self, city, wigle, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.5")
        assert self._service(city, wigle).heartbeat_interval == 0.5
        monkeypatch.setenv("REPRO_HEARTBEAT", "on")
        assert self._service(city, wigle).heartbeat_interval == DEFAULT_INTERVAL_S

    @pytest.mark.parametrize("value", ["soon", "-3", "nan", "inf", "1e400"])
    def test_bad_value_raises_naming_variable(
        self, city, wigle, monkeypatch, value
    ):
        monkeypatch.setenv("REPRO_HEARTBEAT", value)
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT"):
            self._service(city, wigle)


class TestServeWatchRows:
    def test_row_carries_serve_fields(self, tmp_path):
        now = 1000.0
        _write_serve(tmp_path, 61, [now - 1.0], committed=[500])
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        row = rows[0]
        assert row["kind"] == "serve"
        assert row["events_failed"] == 0
        assert row["probes_per_s"] == 12000.0
        assert row["overloaded"] is False
        assert row["stalled"] is False
        assert "serving" in render_watch(rows, 60.0)

    def test_shedding_service_flagged_overloaded(self, tmp_path):
        now = 1000.0
        _write_serve(tmp_path, 62, [now - 1.0], committed=[500],
                     shed_fraction=0.2)
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        assert rows[0]["overloaded"] is True
        assert "OVERLOADED (shed 20.0%)" in render_watch(rows, 60.0)

    def test_full_queue_flagged_overloaded(self, tmp_path):
        now = 1000.0
        _write_serve(tmp_path, 63, [now - 1.0], committed=[500],
                     queue_depth=256, queue_max=256)
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        assert rows[0]["overloaded"] is True

    def test_frozen_commits_with_backlog_is_a_stall(self, tmp_path):
        """A stuck consumer keeps heartbeating; commits frozen with a
        backlog past the threshold must still read as stalled."""
        now = 1000.0
        _write_serve(
            tmp_path, 64,
            [now - 300.0, now - 150.0, now - 1.0],
            committed=[400, 400, 400],  # frozen for 300 s, 800 expected
        )
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        assert rows[0]["stalled"] is True
        assert "STALLED" in render_watch(rows, 60.0)

    def test_progressing_commits_not_stalled(self, tmp_path):
        now = 1000.0
        _write_serve(
            tmp_path, 65,
            [now - 300.0, now - 150.0, now - 1.0],
            committed=[200, 400, 600],
        )
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        assert rows[0]["stalled"] is False

    def test_done_service_never_flagged(self, tmp_path):
        now = 1000.0
        _write_serve(tmp_path, 66, [now - 3600.0], shed_fraction=0.5,
                     done=True)
        rows = watch_snapshot(tmp_path, stall_after_s=60.0, now=now)
        assert rows[0]["stalled"] is False
        assert rows[0]["overloaded"] is False


class TestServeFleet:
    def test_services_fold_into_health(self, tmp_path):
        from repro.obs.telemetry import fleet_snapshot, render_top

        now = 1000.0
        _write_worker(tmp_path, 71, now - 1.0)
        _write_serve(tmp_path, 72, [now - 1.0], committed=[500])
        doc = fleet_snapshot(tmp_path, stall_after_s=60.0, now=now)
        assert len(doc["services"]) == 1
        assert doc["health"]["overloaded"] == 0
        assert doc["health"]["healthy"] is True
        out = render_top(doc)
        assert "1 worker(s), 0 shard(s), 1 service(s)" in out
        assert "serving" in out

    def test_overloaded_service_degrades_health(self, tmp_path):
        from repro.obs.telemetry import fleet_snapshot, render_top

        now = 1000.0
        _write_serve(tmp_path, 73, [now - 1.0], committed=[500],
                     shed_fraction=0.3, queue_depth=256, queue_max=256)
        doc = fleet_snapshot(tmp_path, stall_after_s=60.0, now=now)
        assert doc["health"]["healthy"] is False
        assert doc["health"]["overloaded"] == 1
        assert any("overloaded" in p for p in doc["health"]["problems"])
        out = render_top(doc)
        assert "OVERLOADED" in out
        assert "health: DEGRADED" in out

    def test_top_cli_shows_service_table(self, tmp_path, capsys):
        now = time.time()
        _write_serve(tmp_path, 75, [now - 1.0], committed=[800], done=True)
        rc = main(["obs", "top", "--once", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "serve-75.jsonl" in out
        assert "done" in out


class TestServiceHeartbeatIntegration:
    def test_service_emits_and_watch_folds(
        self, city, wigle, tmp_path, monkeypatch, capsys
    ):
        from repro.serve.core import RankingCore
        from repro.serve.service import run_stream

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.05")
        core = RankingCore.seeded(
            wigle, city.heatmap, city.venues[0].region.center, seed=0
        )
        run_stream(core, [ProbeEvent(client_mac(i % 8), 0.02 * i)
                          for i in range(200)])
        files = list((tmp_path / "telemetry").glob("serve-*.jsonl"))
        assert len(files) == 1
        records = read_jsonl(files[0])
        assert records[-1]["done"] is True
        assert records[-1]["kind"] == "serve"
        assert records[-1]["committed"] == 200
        assert records[-1]["events"] == 200
        assert records[-1]["fraction"] == 1.0
        rc = main(["obs", "watch", "--once",
                   "--dir", str(tmp_path / "telemetry")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "done" in out


class TestLiveServeStallVerdict:
    """A live service's verdict after a failed or shed event.

    Each accepted event counts once, as committed or as failed, and the
    backlog is ``events - shed - committed - events_failed``.  An idle
    service that failed or shed one event has no backlog and must not
    read as stalled; a consumer frozen with a backlog still must.
    """

    @pytest.fixture
    def core(self, city, wigle, tmp_path, monkeypatch):
        from repro.serve.core import RankingCore

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.05")
        return RankingCore.seeded(
            wigle, city.heatmap, city.venues[0].region.center, seed=3
        )

    @staticmethod
    def _probes(n=20):
        return [ProbeEvent(client_mac(i % 4), 0.1 * i) for i in range(n)]

    @staticmethod
    def _idle_row(service, events, tmp_path):
        """Serve ``events``, sit idle 1 s, then read the live verdict."""

        async def scenario():
            await service.start()
            try:
                for event in events:
                    await service.submit(event)
                await service.drain()
                await asyncio.sleep(1.0)
                return watch_snapshot(tmp_path / "telemetry", stall_after_s=0.5)
            finally:
                await service.stop()

        rows = asyncio.run(scenario())
        assert len(rows) == 1
        assert rows[0]["done"] is False
        return rows[0]

    def test_failed_event_idle_service_not_stalled(self, core, tmp_path):
        from repro.serve.service import RankingService

        events = self._probes()
        original_handle = core.handle

        def flaky_handle(event):
            if event is events[7]:
                raise RuntimeError("injected core fault")
            return original_handle(event)

        core.handle = flaky_handle
        row = self._idle_row(RankingService(core), events, tmp_path)
        assert (row["events"], row["committed"], row["events_failed"]) == (
            20, 19, 1
        )
        assert row["stalled"] is False
        assert "serving" in render_watch([row], 0.5)

    def test_shed_probe_idle_service_not_stalled(self, core, tmp_path):
        from repro.serve.service import RankingService

        # The consumer cannot run between submits that never wait, so
        # the twentieth probe finds the 19-slot queue full.
        service = RankingService(core, queue_max=19, shed=True)
        row = self._idle_row(service, self._probes(), tmp_path)
        assert (row["events"], row["shed"], row["committed"]) == (20, 1, 19)
        assert row["events_failed"] == 0
        assert row["stalled"] is False

    def test_failed_decision_callback_counted_once(self, core, tmp_path):
        from repro.serve.service import RankingService

        events = self._probes()

        def on_decision(decision):
            if decision.time == events[7].time:
                raise RuntimeError("injected callback fault")

        service = RankingService(core, on_decision=on_decision)
        row = self._idle_row(service, events, tmp_path)
        assert (row["events"], row["committed"], row["events_failed"]) == (
            20, 19, 1
        )
        assert row["stalled"] is False

    def test_frozen_consumer_still_stalled(self, core, tmp_path):
        from repro.serve.service import run_stream

        events = self._probes()
        original_handle = core.handle
        rows = []

        def stuck_handle(event):
            if event is events[5]:
                # The consumer is wedged here with 14 events queued
                # behind it while the heartbeat thread keeps writing.
                time.sleep(1.0)
                rows.extend(
                    watch_snapshot(tmp_path / "telemetry", stall_after_s=0.5)
                )
            return original_handle(event)

        core.handle = stuck_handle
        run_stream(core, events)
        assert len(rows) == 1
        assert (rows[0]["events"], rows[0]["committed"]) == (20, 5)
        assert rows[0]["stalled"] is True
        assert "STALLED" in render_watch(rows, 0.5)


class TestTopCli:
    def test_once_healthy_exits_zero(self, tmp_path, capsys):
        now = time.time()
        _write_shard(tmp_path, 0, [now - 1.0], epoch=3)
        _write_shard(tmp_path, 1, [now - 1.0], epoch=3)
        _write_epochs(tmp_path, 0, epochs=3, phase_s=0.5, t0=now - 10.0)
        _write_epochs(tmp_path, 1, epochs=3, phase_s=0.5, t0=now - 10.0)
        rc = main(["obs", "top", "--once", "--dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "health: OK" in out

    def test_once_degraded_exits_nonzero(self, tmp_path, capsys):
        """Acceptance: the synthetic straggler/stall fixture makes
        ``obs top --once`` exit non-zero."""
        now = time.time()
        _write_shard(tmp_path, 0, [now - 3600.0, now - 1.0], epoch=0)
        _write_shard(tmp_path, 1, [now - 1.0], epoch=5)
        _write_epochs(tmp_path, 0, epochs=1, phase_s=5.0, t0=now - 3600.0)
        _write_epochs(tmp_path, 1, epochs=5, phase_s=0.1, t0=now - 10.0)
        rc = main([
            "obs", "top", "--once", "--dir", str(tmp_path),
            "--stall-after", "60",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "health: DEGRADED" in out
        assert "stalled" in out

    def test_once_json_parses(self, tmp_path, capsys):
        now = time.time()
        _write_shard(tmp_path, 0, [now - 1.0], epoch=2)
        _write_epochs(tmp_path, 0, epochs=2, phase_s=0.5, t0=now - 5.0)
        rc = main(["obs", "top", "--once", "--json", "--dir", str(tmp_path)])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["health"]["healthy"] is True
        assert doc["epochs"]["0"]["epochs_done"] == 2
