"""Tests for the per-epoch barrier tracer (repro.obs.epochs).

Three contracts: the tracer's files read back faithfully (torn lines
tolerated, stale files rotated), a sharded run under REPRO_EPOCH_TRACE
actually produces spans for every shard, and the Chrome trace-event
export validates — one track per shard, phase and barrier spans, flow
arrows that only point at spans that exist.  Digest invariance with
tracing on lives in test_shard_golden.py next to the other golden
contracts.
"""

import json

import pytest

from repro.cli import main
from repro.obs.epochs import (
    EPOCH_TRACE_ENV,
    EpochTracer,
    epoch_file,
    epoch_trace_doc,
    load_epoch_dir,
    maybe_epoch_tracer,
    read_epoch_records,
    resolve_epoch_trace,
)
from repro.obs.records import validate_chrome_trace, write_json
from repro.sim.shards import ShardScenario, run_sharded

SCENARIO = ShardScenario(
    stations=120, sensors=16, duration=60.0, seed=3, size_m=480.0
)


class TestResolve:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(EPOCH_TRACE_ENV, raising=False)
        assert resolve_epoch_trace() is False
        assert maybe_epoch_tracer(0, 2, 10) is None

    def test_truthy_values(self, monkeypatch):
        for value, on in (("1", True), ("on", True), ("0", False)):
            monkeypatch.setenv(EPOCH_TRACE_ENV, value)
            assert resolve_epoch_trace() is on
        # A word that is neither on nor off is a typo, not "off".
        monkeypatch.setenv(EPOCH_TRACE_ENV, "sometimes")
        with pytest.raises(ValueError, match=EPOCH_TRACE_ENV):
            resolve_epoch_trace()

    def test_env_gate(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.setenv(EPOCH_TRACE_ENV, "1")
        tracer = maybe_epoch_tracer(1, 4, 12)
        assert isinstance(tracer, EpochTracer)
        assert tracer.path == tmp_path / "telemetry" / "epochs-1.jsonl"


class TestTracerFiles:
    def _tracer(self, tmp_path, shard_id=0):
        return EpochTracer(
            shard_id, 2, 5, base_dir=tmp_path, clock=lambda: 100.0
        )

    def test_records_read_back(self, tmp_path):
        tracer = self._tracer(tmp_path)
        tracer.record(0, "a", 0.5, 0.0, {"m": 3, "o": 0}, {1: [("m",), ("m",)]})
        tracer.record(0, "b", 0.25, 0.1, {"f": 1, "p": 2}, {})
        records = read_epoch_records(tracer.path)
        assert [r["phase"] for r in records] == ["a", "b"]
        first = records[0]
        assert first["shard"] == 0 and first["shards"] == 2
        assert first["epochs"] == 5
        assert first["in"] == {"m": 3}  # zero-count kinds dropped
        assert first["out"] == {"1": 2}  # JSON stringifies dest keys
        assert records[1]["barrier_s"] == 0.1

    def test_stale_file_rotated_on_first_record(self, tmp_path):
        path = epoch_file(0, tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text('{"epoch": 9, "phase": "b", "stale": true}\n')
        tracer = self._tracer(tmp_path)
        tracer.record(0, "a", 0.1, 0.0, {}, {})
        records = read_epoch_records(path)
        assert len(records) == 1
        assert records[0]["epoch"] == 0
        assert path.with_name(path.name + ".old").exists()

    def test_one_handle_flushed_per_record(self, tmp_path):
        tracer = self._tracer(tmp_path)
        tracer.record(0, "a", 0.1, 0.0, {}, {})
        handle = tracer._fh
        # A reader sees each record while the tracer still holds the file.
        assert len(read_epoch_records(tracer.path)) == 1
        tracer.record(0, "b", 0.1, 0.0, {}, {})
        assert tracer._fh is handle
        assert len(read_epoch_records(tracer.path)) == 2
        tracer.close()
        assert handle.closed
        # A record after close appends again; it does not rotate.
        tracer.record(1, "a", 0.1, 0.0, {}, {})
        tracer.close()
        assert [r["phase"] for r in read_epoch_records(tracer.path)] == [
            "a", "b", "a"]
        assert not tracer.path.with_name(tracer.path.name + ".old").exists()

    def test_torn_lines_skipped(self, tmp_path):
        tracer = self._tracer(tmp_path)
        tracer.record(0, "a", 0.1, 0.0, {}, {})
        with open(tracer.path, "a") as fh:
            fh.write('{"epoch": 1, "phase": "b", "wall')
        assert len(read_epoch_records(tracer.path)) == 1

    def test_load_epoch_dir(self, tmp_path):
        self._tracer(tmp_path, 0).record(0, "a", 0.1, 0.0, {}, {})
        self._tracer(tmp_path, 1).record(0, "a", 0.2, 0.0, {}, {})
        (tmp_path / "telemetry" / "epochs-junk.jsonl").write_text("{}\n")
        by_shard = load_epoch_dir(tmp_path / "telemetry")
        assert sorted(by_shard) == [0, 1]

    def test_load_epoch_dir_missing(self, tmp_path):
        assert load_epoch_dir(tmp_path) == {}


class TestShardedRunTracing:
    def test_run_produces_spans_per_shard(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.setenv(EPOCH_TRACE_ENV, "1")
        result = run_sharded(
            SCENARIO, shards=2, mode="inline", collect_states=False
        )
        by_shard = load_epoch_dir(tmp_path / "telemetry")
        assert sorted(by_shard) == [0, 1]
        for records in by_shard.values():
            # two phase records per epoch, a/b alternating
            assert len(records) == 2 * result.epochs
            assert [r["phase"] for r in records[:2]] == ["a", "b"]
            assert all(r["wall_s"] >= 0.0 for r in records)

    def test_off_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.delenv(EPOCH_TRACE_ENV, raising=False)
        run_sharded(SCENARIO, shards=2, mode="inline", collect_states=False)
        assert load_epoch_dir(tmp_path / "telemetry") == {}


def _synthetic_records(shards=2, epochs=3, phase_s=0.5):
    """Deterministic epoch records with every shard handing to the other."""
    by_shard = {}
    for shard in range(shards):
        t = 1000.0 + shard * 0.01
        records = []
        for epoch in range(epochs):
            for phase in ("a", "b"):
                t += phase_s
                records.append({
                    "wall": t,
                    "shard": shard,
                    "shards": shards,
                    "epoch": epoch,
                    "epochs": epochs,
                    "phase": phase,
                    "wall_s": phase_s,
                    "barrier_s": 0.05 if epoch else 0.0,
                    "in": {"m": 1},
                    "out": {str(1 - shard): 4},
                })
        by_shard[shard] = records
    return by_shard


class TestChromeExport:
    def test_doc_validates(self):
        doc = epoch_trace_doc(_synthetic_records())
        validate_chrome_trace(doc)

    def test_one_track_per_shard(self):
        doc = epoch_trace_doc(_synthetic_records(shards=3))
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert names == ["shard 0", "shard 1", "shard 2"]

    def test_phase_and_barrier_spans(self):
        doc = epoch_trace_doc(_synthetic_records(epochs=2))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        phase = [e for e in spans if e.get("cat") == "phase"]
        barrier = [e for e in spans if e.get("cat") == "barrier"]
        # 2 shards x 2 epochs x 2 phases; barriers only once epoch > 0
        assert len(phase) == 8
        assert len(barrier) == 4
        assert {e["name"] for e in phase} == {
            "epoch 0 A", "epoch 0 B", "epoch 1 A", "epoch 1 B"
        }
        assert all(e["dur"] > 0 for e in spans)

    def test_flow_arrows_pair_up_across_shards(self):
        doc = epoch_trace_doc(_synthetic_records())
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        starts = [e for e in flows if e["ph"] == "s"]
        ends = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(ends) > 0
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        by_id = {e["id"]: e for e in ends}
        for s in starts:
            # every arrow lands on the *other* shard's track
            assert by_id[s["id"]]["tid"] != s["tid"]

    def test_dangling_handoff_dropped(self):
        """A batch aimed at an epoch that never ran (the tail of a
        truncated file) must not produce a one-ended flow arrow."""
        records = _synthetic_records(epochs=1)
        # phase b of epoch 0 hands to epoch 1 phase a, which doesn't exist
        doc = epoch_trace_doc(records)
        validate_chrome_trace(doc)
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        # only the a->b arrows within epoch 0 survive
        assert all(e["name"] == "handoff" for e in flows)
        starts = [e for e in flows if e["ph"] == "s"]
        ends = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(ends) == 2

    def test_write_epoch_trace(self, tmp_path):
        path = write_json(
            tmp_path / "sub" / "trace.json", epoch_trace_doc(_synthetic_records())
        )
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)
        assert doc["displayTimeUnit"] == "ms"


class TestShardTraceCli:
    def test_export_and_validate(self, tmp_path, capsys):
        for shard, records in _synthetic_records().items():
            path = epoch_file(shard, tmp_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as fh:
                for rec in records:
                    fh.write(json.dumps(rec) + "\n")
        out_path = tmp_path / "epoch_trace.json"
        rc = main([
            "obs", "shard-trace",
            "--dir", str(tmp_path / "telemetry"),
            "--out", str(out_path),
        ])
        assert rc == 0
        assert "2 shard(s)" in capsys.readouterr().out
        validate_chrome_trace(json.loads(out_path.read_text()))

    def test_no_spans_is_an_error(self, tmp_path, capsys):
        rc = main([
            "obs", "shard-trace", "--dir", str(tmp_path),
            "--out", str(tmp_path / "t.json"),
        ])
        assert rc == 1
        assert "no epochs-" in capsys.readouterr().err


@pytest.mark.parametrize("shards", [1, 2])
def test_tracing_never_perturbs_digest(tmp_path, monkeypatch, shards):
    """Cheap single-run mirror of the golden invariance contract: the
    same scenario digests identically with tracing on and off."""
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
    monkeypatch.delenv(EPOCH_TRACE_ENV, raising=False)
    plain = run_sharded(
        SCENARIO, shards=shards, mode="inline", collect_states=False
    )
    monkeypatch.setenv(EPOCH_TRACE_ENV, "1")
    traced = run_sharded(
        SCENARIO, shards=shards, mode="inline", collect_states=False
    )
    assert traced.digest() == plain.digest()
    assert load_epoch_dir(tmp_path / "telemetry")
