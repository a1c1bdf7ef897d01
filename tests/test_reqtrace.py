"""Per-probe request tracing: ring, files, Chrome export, service wiring.

The request tracer answers *where did this probe's microseconds go* in
the serving path.  These tests pin its contract: a bounded observe-only
ring that drops the oldest spans and counts the loss, heartbeat-style
JSONL flush with rotation and torn-line-tolerant readers, a Chrome
trace-event export with an ingress track, a consumer track and flow
arrows from enqueue to rank, and the ``RankingService`` wiring that
records all four pipeline stages without touching decisions.
"""

import json

import pytest

from repro.cli import main
from repro.obs import reqtrace
from repro.obs.records import telemetry_dir, validate_chrome_trace, write_json
from repro.obs.reqtrace import (
    DEFAULT_MAX_RECORDS,
    STAGES,
    RequestTrace,
    load_reqtrace_dir,
    maybe_request_trace,
    read_reqtrace_records,
    req_trace_doc,
    resolve_req_trace,
)
from repro.serve.core import RankingCore
from repro.serve.events import ProbeEvent
from repro.serve.service import run_stream


def spans(n_seq=4):
    """Synthetic full-pipeline spans for ``n_seq`` sequenced events."""
    out = []
    t = 100.0
    for seq in range(n_seq):
        out.append(
            {
                "stage": "enqueue",
                "seq": seq,
                "start": t,
                "dur": 0.0001,
                "mac": "02:5e:00:00:00:%02x" % seq,
                "etype": "probe",
            }
        )
        for i, stage in enumerate(("queue_wait", "rank", "apply")):
            out.append(
                {
                    "stage": stage,
                    "seq": seq,
                    "start": t + 0.001 * (i + 1),
                    "dur": 0.0005,
                }
            )
        t += 0.01
    return out


class TestResolveAndRing:
    def test_resolve_env_and_explicit(self, monkeypatch):
        monkeypatch.delenv("REPRO_REQ_TRACE", raising=False)
        assert resolve_req_trace() is False
        monkeypatch.setenv("REPRO_REQ_TRACE", "1")
        assert resolve_req_trace() is True
        monkeypatch.setenv("REPRO_REQ_TRACE", "off")
        assert resolve_req_trace() is False
        # The variable is the only switch: no explicit argument.
        with pytest.raises(TypeError):
            resolve_req_trace(True)

    def test_resolve_max(self):
        # The capacity is the module constant: no argument sets it.
        assert RequestTrace().max_records == DEFAULT_MAX_RECORDS == 200_000
        with pytest.raises(TypeError):
            RequestTrace(max_records=7)

    def test_maybe_request_trace_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_REQ_TRACE", raising=False)
        assert maybe_request_trace() is None
        monkeypatch.setenv("REPRO_REQ_TRACE", "1")
        assert isinstance(maybe_request_trace(), RequestTrace)

    def test_ring_drops_oldest_and_counts(self, monkeypatch):
        # The capacity is the module constant; shrink it for the test.
        monkeypatch.setattr(reqtrace, "DEFAULT_MAX_RECORDS", 3)
        trace = RequestTrace()
        for seq in range(5):
            trace.record("rank", seq, 100.0 + seq, 0.001)
        assert len(trace) == 3
        assert trace.dropped == 2
        # the *recent* window survives — that's the one being debugged
        assert [r["seq"] for r in trace.records()] == [2, 3, 4]

    def test_record_skips_none_attrs(self):
        trace = RequestTrace()
        trace.record("enqueue", 0, 1.0, 0.0, mac="aa", etype=None)
        rec = trace.records()[0]
        assert rec["mac"] == "aa"
        assert "etype" not in rec


class TestFilesAndReaders:
    def test_flush_rotates_and_reads_back(self, tmp_path):
        trace = RequestTrace()
        trace.record("rank", 0, 5.0, 0.001)
        first = trace.flush(tmp_path)
        assert first.parent == telemetry_dir(tmp_path)
        trace.record("rank", 1, 6.0, 0.001)
        second = trace.flush(tmp_path)
        assert second == first
        assert first.with_name(first.name + ".old").exists()
        records = read_reqtrace_records(second)
        assert [r["seq"] for r in records] == [0, 1]

    def test_reader_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "reqtrace-1.jsonl"
        good = {"stage": "rank", "seq": 3, "start": 1.0, "dur": 0.1}
        path.write_text(
            json.dumps(good) + "\n"
            + '{"not": "a span"}\n'
            + '{"stage": "rank", "seq": 4, "sta'  # torn final line
        )
        records = read_reqtrace_records(path)
        assert records == [good]

    def test_load_dir_aggregates_sorted(self, tmp_path):
        for pid, seq in ((111, 0), (222, 1)):
            p = tmp_path / ("reqtrace-%d.jsonl" % pid)
            p.write_text(json.dumps(
                {"stage": "rank", "seq": seq,
                 "start": float(seq), "dur": 0.1}) + "\n")
        (tmp_path / "serve-111.jsonl").write_text("{}\n")  # not a trace
        records = load_reqtrace_dir(tmp_path)
        assert [r["seq"] for r in records] == [0, 1]


class TestChromeExport:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            req_trace_doc([])

    def test_doc_validates_with_tracks_and_flows(self):
        doc = req_trace_doc(spans(n_seq=4))
        validate_chrome_trace(doc)
        events = doc["traceEvents"]
        meta = {e["name"]: e for e in events if e["ph"] == "M"}
        assert meta["process_name"]["args"]["name"] == "repro-serve"
        names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"ingress", "consumer"}
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == set(STAGES)
        # ingress spans on tid 0, every consumer stage on tid 1
        assert {e["tid"] for e in xs if e["name"] == "enqueue"} == {0}
        assert {e["tid"] for e in xs if e["name"] != "enqueue"} == {1}
        # timestamps are normalised to the earliest span
        assert min(e["ts"] for e in xs) == 0.0

    def test_flow_arrows_pair_enqueue_to_commit(self):
        doc = req_trace_doc(spans(n_seq=3))
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) == 3
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}
        assert all(e["bp"] == "e" for e in finishes)
        assert {e["tid"] for e in starts} == {0}  # leave from ingress
        assert {e["tid"] for e in finishes} == {1}  # land on the consumer

    def test_write_req_trace_roundtrip(self, tmp_path):
        out = tmp_path / "req_trace.json"
        write_json(out, req_trace_doc(spans(n_seq=2)))
        validate_chrome_trace(json.loads(out.read_text()))


class TestServiceWiring:
    @pytest.fixture()
    def artifact_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_REQ_TRACE", raising=False)
        return tmp_path

    def run(self, city, wigle, n_events=120):
        core = RankingCore.seeded(
            wigle, city.heatmap, city.venues[0].region.center, seed=0
        )
        events = [
            ProbeEvent("02:5e:00:00:00:%02x" % (i % 8), 0.02 * i)
            for i in range(n_events)
        ]
        return run_stream(core, events)

    def test_off_by_default(self, city, wigle, artifact_dir):
        service = self.run(city, wigle)
        assert service.reqtrace is None
        assert not list(telemetry_dir(artifact_dir).glob("reqtrace-*"))

    def test_all_stages_recorded_and_flushed(
        self, city, wigle, artifact_dir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_REQ_TRACE", "1")
        service = self.run(city, wigle)
        records = service.reqtrace.records()
        assert {r["stage"] for r in records} == set(STAGES)
        # one enqueue span per accepted event, stamped with the mac
        enq = [r for r in records if r["stage"] == "enqueue"]
        assert len(enq) == 120
        assert all("mac" in r for r in enq)
        # stage histograms observed alongside the spans
        for name in ("serve.queue_wait_us", "serve.apply_us"):
            hist = service.metrics.histogram(name)
            assert hist is not None and hist.count > 0
        gauges = service.metrics.to_dict()["gauges"]
        assert gauges["reqtrace.records"] == len(records)
        assert gauges["reqtrace.dropped"] == 0
        # finish() flushed the ring; the export validates end to end
        flushed = load_reqtrace_dir(telemetry_dir(artifact_dir))
        assert len(flushed) == len(records)
        doc = req_trace_doc(flushed)
        validate_chrome_trace(doc)
        assert any(e["ph"] == "s" for e in doc["traceEvents"])

    def test_ring_cap_respected_under_load(
        self, city, wigle, artifact_dir, monkeypatch
    ):
        monkeypatch.setenv("REPRO_REQ_TRACE", "1")
        monkeypatch.setattr(reqtrace, "DEFAULT_MAX_RECORDS", 50)
        service = self.run(city, wigle)
        assert len(service.reqtrace) == 50
        assert service.reqtrace.dropped > 0
        gauges = service.metrics.to_dict()["gauges"]
        assert gauges["reqtrace.cap"] == 50
        assert gauges["reqtrace.dropped"] == service.reqtrace.dropped


class TestServeTraceCli:
    def test_export_from_flushed_dir(self, tmp_path, capsys):
        directory = tmp_path / "telemetry"
        directory.mkdir()
        (directory / "reqtrace-7.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in spans(n_seq=3))
        )
        out = tmp_path / "req_trace.json"
        rc = main(["obs", "serve-trace", "--dir", str(directory),
                   "--out", str(out)])
        assert rc == 0
        validate_chrome_trace(json.loads(out.read_text()))
        printed = capsys.readouterr().out
        assert "3 event(s)" in printed

    def test_empty_dir_fails(self, tmp_path, capsys):
        rc = main(["obs", "serve-trace", "--dir", str(tmp_path),
                   "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "REPRO_REQ_TRACE=1" in capsys.readouterr().err
