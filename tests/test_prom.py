"""Tests for the Prometheus text exposition (repro.obs.prom).

The load-bearing contract is the round-trip: every counter and gauge in
a ``metrics.json`` document must appear in the rendered ``.prom`` text
with the same value, found via the same key mapping
(:func:`prom_sample_key`) a scraper would use.  The committed golden
fixtures serve as the corpus so the contract is checked against real
label shapes, not hand-picked ones.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.prom import (
    format_labels,
    parse_prom_text,
    prom_lines,
    prom_sample_key,
    render_prom,
    sanitize_name,
    validate_prom_text,
    write_prom,
)

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"


def golden_doc() -> dict:
    return json.loads((DATA_DIR / "golden_metrics.json").read_text())


class TestNames:
    def test_sanitize_prefixes_and_replaces(self):
        assert sanitize_name("attacker.hits") == "repro_attacker_hits"
        assert sanitize_name("a-b c") == "repro_a_b_c"

    def test_labels_sorted_and_escaped(self):
        labels = {"ssid": 'Joe"s\nCafe\\1', "shard": "2"}
        text = format_labels(labels)
        assert text.startswith('{shard="2",ssid="')
        assert '\\"' in text and "\\n" in text and "\\\\" in text

    def test_no_labels_is_empty(self):
        assert format_labels({}) == ""

    def test_sample_key_kinds(self):
        key = 'attacker.hits{"provenance":"carrier"}'
        assert prom_sample_key(key, "counter") == (
            'repro_attacker_hits_total{provenance="carrier"}'
        )
        assert prom_sample_key("events.cap", "gauge") == "repro_events_cap"


class TestLines:
    def test_counter_and_gauge_sections(self):
        snap = {
            "counters": {"hits": 3, 'hits{"shard":"1"}': 2},
            "gauges": {"cap": 10.5},
        }
        lines = prom_lines(snap)
        assert "# TYPE repro_hits_total counter" in lines
        assert lines.count("# TYPE repro_hits_total counter") == 1
        assert "repro_hits_total 3" in lines
        assert 'repro_hits_total{shard="1"} 2' in lines
        assert "repro_cap 10.5" in lines

    def test_histogram_buckets_cumulative(self):
        snap = {
            "histograms": {
                "lat": {
                    "bounds": [1.0, 5.0],
                    "counts": [2, 3, 1],
                    "sum": 9.5,
                    "count": 6,
                }
            }
        }
        lines = prom_lines(snap)
        assert 'repro_lat_bucket{le="1"} 2' in lines
        assert 'repro_lat_bucket{le="5"} 5' in lines
        assert 'repro_lat_bucket{le="+Inf"} 6' in lines
        assert "repro_lat_sum 9.5" in lines
        assert "repro_lat_count 6" in lines

    def test_timers_become_counter_pairs(self):
        snap = {"timers": {"run": {"total_s": 1.25, "count": 4}}}
        lines = prom_lines(snap)
        assert "# TYPE repro_run_seconds_total counter" in lines
        assert "repro_run_seconds_total 1.25" in lines
        assert "repro_run_calls_total 4" in lines

    def test_series_not_exported(self):
        snap = {
            "counters": {"hits": 1},
            "series": {"pb": [[0.0, 1.0]]},
        }
        assert not any("pb" in line for line in prom_lines(snap))


class TestValidate:
    def test_accepts_rendered_golden(self):
        text = render_prom(golden_doc())
        assert validate_prom_text(text) > 60

    def test_rejects_garbage_sample(self):
        with pytest.raises(ValueError, match="not a valid sample"):
            validate_prom_text("# TYPE a counter\na = 3\n")

    def test_rejects_bad_type_comment(self):
        with pytest.raises(ValueError, match="malformed TYPE"):
            validate_prom_text("# TYPE a sideways\na 3\n")

    def test_rejects_duplicate_type(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            validate_prom_text("# TYPE a counter\n# TYPE a counter\na 1\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no samples"):
            validate_prom_text("# TYPE a counter\n")


class TestRoundTrip:
    def test_every_counter_and_gauge_round_trips(self):
        """Acceptance: metrics.prom carries every counter/gauge of
        metrics.json with the same value."""
        doc = golden_doc()
        samples = parse_prom_text(render_prom(doc))
        merged = doc["merged"]
        assert merged["counters"] and merged["gauges"]
        for key, value in merged["counters"].items():
            sample = prom_sample_key(key, "counter")
            assert sample in samples, sample
            assert samples[sample] == pytest.approx(float(value))
        for key, value in merged["gauges"].items():
            sample = prom_sample_key(key, "gauge")
            assert sample in samples, sample
            assert samples[sample] == pytest.approx(float(value))

    def test_shards_fixture_round_trips(self):
        doc = json.loads((DATA_DIR / "golden_shards.json").read_text())
        samples = parse_prom_text(render_prom(doc))
        for key, value in doc["merged"]["counters"].items():
            assert samples[prom_sample_key(key, "counter")] == pytest.approx(
                float(value)
            )

    def test_write_prom_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        path = write_prom(golden_doc())
        assert path == tmp_path / "metrics.prom"
        validate_prom_text(path.read_text())


class TestWriteMetricsTwin:
    def test_batch_writes_prom_next_to_json(self, tmp_path, monkeypatch):
        """write_metrics produces the scrape-able twin automatically."""
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        from repro.experiments.golden import golden_specs
        from repro.experiments.parallel import run_specs

        run_specs(golden_specs()[:1], workers=1, metrics_name="twin_metrics")
        json_path = tmp_path / "twin_metrics.json"
        prom_path = tmp_path / "twin_metrics.prom"
        assert json_path.is_file() and prom_path.is_file()
        doc = json.loads(json_path.read_text())
        samples = parse_prom_text(prom_path.read_text())
        for key, value in doc["merged"]["counters"].items():
            assert samples[prom_sample_key(key, "counter")] == pytest.approx(
                float(value)
            )


class TestPromCli:
    def test_regenerates_from_artifact(self, tmp_path, capsys):
        src = tmp_path / "metrics.json"
        # the committed fixture is canonicalised (no 'workers', timers
        # stripped); restore what the artefact validator requires
        doc = dict(golden_doc(), workers=1)
        doc["merged"] = dict(doc["merged"], timers={})
        doc["runs"] = [
            dict(r, metrics=dict(r["metrics"], timers={}))
            for r in doc["runs"]
        ]
        src.write_text(json.dumps(doc))
        out = tmp_path / "metrics.prom"
        rc = main(["obs", "prom", "--path", str(src), "--out", str(out)])
        assert rc == 0
        assert "samples written" in capsys.readouterr().out
        assert validate_prom_text(out.read_text()) > 60

    def test_missing_artifact_is_an_error(self, tmp_path, capsys):
        rc = main([
            "obs", "prom", "--path", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out.prom"),
        ])
        assert rc == 1
        assert "no metrics artefact" in capsys.readouterr().err
