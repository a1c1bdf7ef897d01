"""Edge-case coverage for repro.obs.spans and repro.obs.events.

The satellite task from ISSUE 5: nested and unclosed spans, the event
sink at exactly its cap, and merges of empty registries — the corners
the main obs tests skip over.
"""

import pytest

from repro.obs.events import EventSink
from repro.obs.records import Ring, read_jsonl, write_jsonl
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.obs.spans import Span, span
from repro.sim.simulation import Simulation


class TestSpanEdges:
    def test_nested_spans_account_independently(self):
        sim = Simulation(seed=1)
        with span(sim, "outer"):
            sim.at(1.0, lambda: None)
            sim.run(2.0)
            with span(sim, "inner"):
                sim.at(1.0, lambda: None)
                sim.run(5.0)
        c = sim.metrics.to_dict()["counters"]
        assert c["span.outer.count"] == 1
        assert c["span.inner.count"] == 1
        # Inner covers [2, 5]; outer covers all of [0, 5].
        assert c["span.inner.sim_s"] == pytest.approx(3.0)
        assert c["span.outer.sim_s"] == pytest.approx(5.0)
        assert c["span.outer.events"] == 2
        assert c["span.inner.events"] == 1

    def test_same_name_reentry_accumulates(self):
        sim = Simulation(seed=1)
        for _ in range(3):
            with span(sim, "phase"):
                pass
        assert sim.metrics.to_dict()["counters"]["span.phase.count"] == 3

    def test_unclosed_span_records_nothing(self):
        """A span abandoned without __exit__ (crashed phase) must leave
        the registry untouched — no half-written metrics."""
        sim = Simulation(seed=1)
        s = Span(sim, "crashed")
        s.__enter__()
        counters = sim.metrics.to_dict()["counters"]
        assert not any(k.startswith("span.crashed") for k in counters)
        assert sim.events.of_kind("span") == []

    def test_span_closes_on_exception(self):
        sim = Simulation(seed=1)
        with pytest.raises(RuntimeError):
            with span(sim, "boom"):
                raise RuntimeError("phase died")
        # __exit__ still ran: the span is recorded despite the raise.
        assert sim.metrics.to_dict()["counters"]["span.boom.count"] == 1
        assert len(sim.events.of_kind("span")) == 1

    def test_span_event_carries_window(self):
        sim = Simulation(seed=1)
        sim.at(3.0, lambda: None)
        with span(sim, "w"):
            sim.run(4.0)
        # sim.run emits its own internal spans; pick ours by name.
        event = next(
            e for e in sim.events.of_kind("span") if e["name"] == "w"
        )
        assert event["sim_start"] == 0.0
        assert event["sim_s"] == pytest.approx(4.0)


class TestEventSinkEdges:
    """The sink keeps its events in a :class:`Ring` of fixed capacity;
    the capacity edges are the ring's, so they are tested on it."""

    def test_fill_to_exactly_cap(self):
        ring = Ring(4)
        for i in range(4):
            ring.append(float(i))
        assert len(ring) == 4
        assert ring.dropped == 0
        assert ring.records() == [0.0, 1.0, 2.0, 3.0]

    def test_one_past_cap_evicts_oldest(self):
        ring = Ring(4)
        for i in range(5):
            ring.append(float(i))
        assert len(ring) == 4
        assert ring.dropped == 1
        assert ring.records() == [1.0, 2.0, 3.0, 4.0]

    def test_cap_of_one(self):
        ring = Ring(1)
        ring.append("a")
        ring.append("b")
        assert len(ring) == 1
        assert ring.records() == ["b"]
        assert ring.dropped == 1

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError):
            Ring(0)
        # The sink's capacity is fixed: it takes no argument.
        with pytest.raises(TypeError):
            EventSink(max_events=4)

    def test_write_jsonl_empty_sink(self, tmp_path):
        sink = EventSink()
        path = tmp_path / "events.jsonl"
        write_jsonl(path, sink)
        assert path.read_text() == ""
        assert read_jsonl(path) == []


class TestRegistryMergeEdges:
    def test_merge_two_empty_registries(self):
        merged = MetricsRegistry().merge(MetricsRegistry())
        doc = merged.to_dict()
        assert doc["counters"] == {}
        assert doc["gauges"] == {}
        assert doc["histograms"] == {}
        assert doc["series"] == {}

    def test_merge_empty_into_populated(self):
        a = MetricsRegistry()
        a.inc("hits", 3)
        merged = a.merge(MetricsRegistry())
        assert merged.to_dict()["counters"]["hits"] == 3

    def test_merge_populated_into_empty(self):
        b = MetricsRegistry()
        b.inc("hits", 3)
        b.observe("latency", 0.5)
        merged = MetricsRegistry().merge(b)
        doc = merged.to_dict()
        assert doc["counters"]["hits"] == 3
        assert doc["histograms"]["latency"]["count"] == 1

    def test_merge_snapshots_of_empties(self):
        empty = MetricsRegistry().to_dict()
        merged = merge_snapshots([empty, empty])
        assert merged["counters"] == {}

    def test_merge_snapshots_no_input(self):
        merged = merge_snapshots([])
        assert merged["counters"] == {}


class TestEventFilters:
    """The repro obs events --kind/--since/--until satellite."""

    EVENTS = [
        {"time": 0.5, "kind": "span", "name": "a"},
        {"time": 1.5, "kind": "swap", "name": "b"},
        {"time": 2.5, "kind": "span", "name": "c"},
        {"kind": "untimed"},
    ]

    def test_no_filters_keeps_everything(self):
        from repro.analysis.observability import filter_events

        assert filter_events(list(self.EVENTS)) == self.EVENTS

    def test_kind_filter(self):
        from repro.analysis.observability import filter_events

        out = filter_events(list(self.EVENTS), kind="span")
        assert [e["name"] for e in out] == ["a", "c"]

    def test_window_is_half_open(self):
        from repro.analysis.observability import filter_events

        out = filter_events(list(self.EVENTS), since=0.5, until=2.5)
        assert [e["name"] for e in out] == ["a", "b"]

    def test_window_drops_untimed_events(self):
        from repro.analysis.observability import filter_events

        out = filter_events(list(self.EVENTS), since=0.0)
        assert all("time" in e for e in out)

    def test_kind_and_window_compose(self):
        from repro.analysis.observability import filter_events

        out = filter_events(list(self.EVENTS), kind="span", since=1.0)
        assert [e["name"] for e in out] == ["c"]

    def test_cli_filters(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.obs.registry import MetricsRegistry

        snap = MetricsRegistry().to_dict()
        doc = {
            "schema": "repro.metrics/v1",
            "workers": 1,
            "run_count": 1,
            "merged": snap,
            "runs": [
                {"tag": "t0", "attacker": "cityhunter", "seed": 1,
                 "metrics": snap, "events": self.EVENTS},
            ],
        }
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(doc))
        assert main(
            ["obs", "events", "--path", str(path), "--kind", "span",
             "--since", "1.0", "--until", "3.0"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "c"


class TestSinkStatusSurface:
    """The event-sink cap status in repro obs summarize."""

    def _doc(self, dropped=0.0):
        from repro.obs.registry import MetricsRegistry

        reg = MetricsRegistry()
        reg.gauge_set("events.buffered", 5)
        reg.gauge_set("events.dropped", dropped)
        reg.gauge_set("events.cap", 50)
        snap = reg.to_dict()
        return {
            "schema": "repro.metrics/v1",
            "workers": 1,
            "run_count": 2,
            "merged": snap,
            "runs": [
                {"tag": "t0", "attacker": "karma", "seed": 1,
                 "metrics": snap, "events": []},
                {"tag": "t1", "attacker": "karma", "seed": 2,
                 "metrics": snap, "events": []},
            ],
        }

    def test_sink_status_sums_runs(self):
        from repro.analysis.observability import sink_status

        status = sink_status(self._doc(dropped=3.0))
        assert status["events.buffered"] == 10.0
        assert status["events.dropped"] == 6.0
        assert status["events.cap"] == 50.0

    def test_sink_status_handles_old_artefacts(self):
        from repro.analysis.observability import sink_status

        status = sink_status(
            {"merged": {"gauges": {}}, "runs": [{"metrics": {"gauges": {}}}]}
        )
        assert status["events.buffered"] == 0.0
        assert status["events.cap"] == 0.0

    def test_summarize_prints_caps(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(self._doc()))
        assert main(["obs", "summarize", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "event sink: 10 buffered, 0 dropped (cap 50 per run)" in out
        assert "TRUNCATED" not in out

    def test_summarize_flags_truncation(self, tmp_path, capsys):
        import json

        from repro.cli import main

        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(self._doc(dropped=7.0)))
        assert main(["obs", "summarize", "--path", str(path)]) == 0
        assert "TRUNCATED (oldest events evicted)" in capsys.readouterr().out


class TestTimingsEmbedding:
    """The batch timings live in metrics.json, the only timings record."""

    def test_metrics_doc_embeds_timings(self):
        from repro.experiments.parallel import metrics_doc

        doc = metrics_doc([], workers=2, timings={"total_wall_s": 1.5})
        assert doc["timings"] == {"total_wall_s": 1.5}

    def test_metrics_doc_without_timings(self):
        from repro.experiments.parallel import metrics_doc

        assert "timings" not in metrics_doc([], workers=2)

    def test_timings_stripped_from_canonical_form(self):
        from repro.experiments.parallel import metrics_doc
        from repro.obs.golden import canonical_metrics_doc, metrics_digest

        plain = metrics_doc([], workers=1)
        timed = metrics_doc([], workers=1, timings={"total_wall_s": 9.9})
        assert "timings" not in canonical_metrics_doc(timed)
        assert metrics_digest(plain) == metrics_digest(timed)
