"""Tests for the observability layer (repro.obs).

The load-bearing property is merge determinism: worker snapshots merged
in spec order must equal the registry a single serial process would have
accumulated, so the ``metrics.json`` artefact is worker-count invariant.
"""

import json

import pytest

from repro.analysis.observability import (
    pbfb_timeline,
    provenance_breakdown,
    top_hit_ssids,
)
from repro.obs.artifacts import artifact_path
from repro.obs.events import EventSink
from repro.obs.records import read_jsonl, write_jsonl
from repro.obs.registry import (
    FixedHistogram,
    MetricsRegistry,
    merge_snapshots,
    metric_key,
    parse_key,
    validate_metrics_doc,
)
from repro.obs.spans import span
from repro.sim.simulation import Simulation


class TestMetricKeys:
    def test_plain_name(self):
        assert metric_key("hits") == "hits"
        assert parse_key("hits") == ("hits", {})

    def test_labels_round_trip(self):
        key = metric_key("hits", {"provenance": "wigle-near", "bucket": "pb"})
        name, labels = parse_key(key)
        assert name == "hits"
        assert labels == {"provenance": "wigle-near", "bucket": "pb"}

    def test_label_order_is_canonical(self):
        a = metric_key("x", {"a": 1, "b": 2})
        b = metric_key("x", {"b": 2, "a": 1})
        assert a == b

    def test_hostile_label_values_survive(self):
        # SSIDs can contain braces, quotes, commas — the JSON encoding
        # must keep the key parseable anyway.
        ssid = 'Cafe "{a,b}=c" WiFi'
        name, labels = parse_key(metric_key("hit", {"ssid": ssid}))
        assert labels["ssid"] == ssid


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("n")
        reg.inc("n", 2)
        reg.inc("n", 1, kind="x")
        assert reg.counter_value("n") == 3
        assert reg.counter_value("n", kind="x") == 1

    def test_gauges(self):
        reg = MetricsRegistry()
        reg.gauge_set("g", 5)
        reg.gauge_set("g", 2)
        assert reg.to_dict()["gauges"]["g"] == 2
        reg.gauge_max("m", 3)
        reg.gauge_max("m", 1)
        assert reg.to_dict()["gauges"]["m"] == 3

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        for v in (1, 5, 40, 1000):
            reg.observe("h", v, buckets=(10, 100))
        doc = reg.to_dict()["histograms"]["h"]
        assert doc["bounds"] == [10, 100]
        assert doc["counts"] == [2, 1, 1]  # <=10, <=100, overflow
        assert doc["count"] == 4
        assert doc["sum"] == 1046

    def test_series_and_timers(self):
        reg = MetricsRegistry()
        reg.series_append("s", 1.0, 30)
        reg.series_append("s", 2.0, 29)
        with reg.timer("t"):
            pass
        doc = reg.to_dict()
        assert doc["series"]["s"] == [[1.0, 30.0], [2.0, 29.0]]
        assert doc["timers"]["t"]["count"] == 1
        assert doc["timers"]["t"]["total_s"] >= 0

    def test_snapshot_json_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("c", 2, ssid="Free WiFi")
        reg.observe("h", 7)
        reg.series_append("s", 0.5, 1)
        reloaded = MetricsRegistry.from_dict(
            json.loads(json.dumps(reg.to_dict()))
        )
        assert reloaded.to_dict() == reg.to_dict()


class TestMergeSemantics:
    def test_counters_sum_gauges_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        b.inc("only_b")
        a.gauge_set("g", 5)
        b.gauge_set("g", 4)
        merged = a.merge(b).to_dict()
        assert merged["counters"] == {"c": 5, "only_b": 1}
        assert merged["gauges"]["g"] == 5

    def test_histogram_bucket_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (1, 50):
            a.observe("h", v, buckets=(10, 100))
        for v in (5, 500):
            b.observe("h", v, buckets=(10, 100))
        doc = a.merge(b).to_dict()["histograms"]["h"]
        assert doc["counts"] == [2, 1, 1]
        assert doc["count"] == 4
        assert doc["sum"] == 556

    def test_histogram_bounds_mismatch_rejected(self):
        a = FixedHistogram((1, 2))
        b = FixedHistogram((1, 3))
        with pytest.raises(ValueError, match="different bounds"):
            a.merge(b)

    def test_merge_is_worker_count_invariant(self):
        # Simulate 4 per-run snapshots merged serially vs "pooled":
        # the merged export must be identical as long as order is
        # spec order, which the executor guarantees.
        snaps = []
        for i in range(4):
            reg = MetricsRegistry()
            reg.inc("hits", i + 1, provenance="wigle-near")
            reg.observe("burst", 10 * (i + 1), buckets=(10, 20, 40))
            reg.series_append("pb", float(i), 30 + i)
            snaps.append(reg.to_dict())
        assert merge_snapshots(snaps) == merge_snapshots(
            [json.loads(json.dumps(s)) for s in snaps]
        )

    def test_series_merge_sorted(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.series_append("s", 2.0, 1)
        b.series_append("s", 1.0, 2)
        assert a.merge(b).to_dict()["series"]["s"] == [[1.0, 2.0], [2.0, 1.0]]


class TestEventSink:
    def test_ring_drops_oldest_and_counts(self):
        sink = EventSink(max_events=3)
        for i in range(5):
            sink.emit(float(i), "e", i=i)
        assert len(sink) == 3
        assert sink.dropped == 2
        assert [e["i"] for e in sink] == [2, 3, 4]

    def test_disabled_is_noop(self):
        sink = EventSink(enabled=False)
        sink.emit(0.0, "e")
        assert len(sink) == 0 and sink.dropped == 0

    def test_jsonl_round_trip(self, tmp_path):
        sink = EventSink()
        sink.emit(1.0, "span", name="run")
        sink.emit(2.0, "hit", ssid="Free WiFi")
        path = tmp_path / "events.jsonl"
        write_jsonl(path, sink)
        assert read_jsonl(path) == sink.records()


class TestArtifactDir:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        assert str(artifact_path("metrics")).endswith("benchmarks/out/metrics.json")


class TestSpans:
    def test_span_records_sim_time_and_events(self):
        sim = Simulation()
        sim.at(1.0, lambda: None)
        sim.at(2.0, lambda: None)
        with span(sim, "phase"):
            sim.scheduler.run_until(5.0)
        doc = sim.metrics.to_dict()
        assert doc["counters"]["span.phase.count"] == 1
        assert doc["counters"]["span.phase.sim_s"] == 5.0
        assert doc["counters"]["span.phase.events"] == 2
        assert doc["timers"]["span.phase"]["count"] == 1
        kinds = [e["kind"] for e in sim.events]
        assert "span" in kinds

    def test_simulation_run_emits_phase_spans(self):
        sim = Simulation()
        sim.run(10.0)
        counters = sim.metrics.to_dict()["counters"]
        assert counters["span.sim.start_entities.count"] == 1
        assert counters["span.sim.run.count"] == 1
        gauges = sim.metrics.to_dict()["gauges"]
        assert gauges["sim.time"] == 10.0


class TestObsCli:
    @pytest.fixture()
    def artefact(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("attacker.probes", 12, type="broadcast")
        reg.inc("attacker.ssids_sent", 10, provenance="wigle-near", bucket="pb")
        reg.inc("attacker.hits", 2, provenance="wigle-near", bucket="pb")
        reg.inc("attacker.hit_ssids", 2, ssid="Free WiFi")
        snap = reg.to_dict()
        doc = {
            "schema": "repro.metrics/v1",
            "workers": 2,
            "run_count": 1,
            "merged": snap,
            "runs": [
                {"tag": "t0", "attacker": "cityhunter", "seed": 1,
                 "metrics": snap,
                 "events": [{"time": 1.0, "kind": "span", "name": "sim.run"}]},
            ],
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        return path

    def test_summarize(self, artefact, capsys):
        from repro.cli import main

        assert main(["obs", "summarize", "--path", str(artefact)]) == 0
        out = capsys.readouterr().out
        assert "wigle-near" in out
        assert "20.0%" in out

    def test_top_ssids(self, artefact, capsys):
        from repro.cli import main

        assert main(["obs", "top-ssids", "-n", "3",
                     "--path", str(artefact)]) == 0
        assert "Free WiFi" in capsys.readouterr().out

    def test_events_jsonl(self, artefact, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "events.jsonl"
        assert main(["obs", "events", "--path", str(artefact),
                     "--jsonl", str(out_path)]) == 0
        events = read_jsonl(out_path)
        assert events == [
            {"run": "t0", "time": 1.0, "kind": "span", "name": "sim.run"},
        ]

    def test_missing_artefact_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "summarize",
                     "--path", str(tmp_path / "nope.json")]) == 1
        assert "no metrics artefact" in capsys.readouterr().err


class TestArtefactHelpers:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.inc("attacker.ssids_sent", 10, provenance="wigle-near", bucket="pb")
        reg.inc("attacker.ssids_sent", 4, provenance="overheard-direct",
                bucket="fb")
        reg.inc("attacker.hits", 2, provenance="wigle-near", bucket="pb")
        reg.inc("attacker.hit_ssids", 2, ssid="Free WiFi")
        reg.inc("attacker.hit_ssids", 1, ssid="Cafe WiFi")
        reg.series_append("hunter.pb_size", 0.0, 30)
        reg.series_append("hunter.fb_size", 0.0, 10)
        reg.series_append("hunter.pb_size", 5.0, 31)
        reg.series_append("hunter.fb_size", 5.0, 9)
        return reg.to_dict()

    def test_provenance_breakdown(self):
        rows = provenance_breakdown(self._snapshot())
        assert rows[0] == ("wigle-near", 10, 2, 8, 0.2)
        assert rows[1] == ("overheard-direct", 4, 0, 4, 0.0)

    def test_top_hit_ssids(self):
        assert top_hit_ssids(self._snapshot(), 1) == [("Free WiFi", 2)]

    def test_pbfb_timeline(self):
        assert pbfb_timeline(self._snapshot()) == [
            (0.0, 30, 10), (5.0, 31, 9),
        ]

    def test_validate_metrics_doc(self):
        doc = {
            "schema": "repro.metrics/v1",
            "workers": 1,
            "run_count": 1,
            "merged": self._snapshot(),
            "runs": [
                {"tag": "t", "attacker": "cityhunter", "seed": 1,
                 "metrics": self._snapshot()},
            ],
        }
        validate_metrics_doc(doc)  # should not raise
        bad = dict(doc, run_count=2)
        with pytest.raises(ValueError, match="run_count"):
            validate_metrics_doc(bad)
        with pytest.raises(ValueError, match="schema"):
            validate_metrics_doc(dict(doc, schema="nope"))
