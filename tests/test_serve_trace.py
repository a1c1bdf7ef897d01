"""Replay of the committed UJI-shaped probe trace.

``tests/data/uji_probes_sample.jsonl`` is a committed JSONL capture in
the UJI Probes dataset shape (one object per line: ``ts``, ``mac``,
``ssid`` — empty for broadcast — and a ``type``), generated from a
recorded canteen scenario with three deliberately malformed lines
injected at known positions.  These tests pin the tolerant-parse
accounting, the replay determinism contract (same digest across two
runs) and the round-trip through the trace writer, plus the ``repro
serve replay`` CLI on top.
"""

import json
import pathlib

import pytest

from repro.cli import main as cli_main
from repro.experiments.calibration import venue_profile
from repro.serve.core import RankingCore
from repro.serve.events import decisions_digest
from repro.serve.service import run_stream
from repro.serve.trace import load_trace, write_trace

FIXTURE = pathlib.Path(__file__).parent / "data" / "uji_probes_sample.jsonl"


@pytest.fixture(scope="module")
def trace():
    events, stats = load_trace(FIXTURE)
    return events, stats


def _core(city, wigle, seed=11):
    # The canteen centre: the fixture was recorded at this position.
    position = city.venue(venue_profile("canteen").venue_name).region.center
    return RankingCore.seeded(wigle, city.heatmap, position, seed=seed)


class TestFixtureParsing:
    def test_tolerant_parse_accounting(self, trace):
        events, stats = trace
        assert stats.lines == 215
        assert stats.parsed == len(events) == 212
        assert stats.skipped == 3
        assert [line for line, _ in stats.reasons] == [41, 91, 215]

    def test_event_shape(self, trace):
        events, _ = trace
        kinds = {type(e).__name__ for e in events}
        assert "ProbeEvent" in kinds and "FeedbackEvent" in kinds
        assert all(e.mac == e.mac.lower() for e in events)
        times = [e.time for e in events]
        assert times == sorted(times)


class TestReplayDeterminism:
    def test_same_digest_across_two_runs(self, trace, city, wigle):
        events, _ = trace
        digests = []
        for _ in range(2):
            service = run_stream(_core(city, wigle), events)
            digests.append(decisions_digest(service.decisions))
        assert digests[0] == digests[1]
        assert len(service.decisions) > 0


class TestRoundTrip:
    def test_write_then_load_is_identity(self, trace, tmp_path):
        events, _ = trace
        path = write_trace(events, tmp_path / "rt.jsonl")
        reloaded, stats = load_trace(path)
        assert stats.skipped == 0
        assert reloaded == events


class TestReplayCli:
    def test_replay_writes_decisions_and_reports_skips(
        self, tmp_path, capsys
    ):
        out = tmp_path / "decisions.jsonl"
        rc = cli_main(
            [
                "serve",
                "replay",
                str(FIXTURE),
                "--seed",
                "11",
                "--decisions-out",
                str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "3 line(s) skipped" in printed
        assert "decisions digest " in printed
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows, "no decisions written"
        assert all(len(r) == 4 for r in rows)

    def test_replay_strict_fails_on_skips(self, capsys):
        rc = cli_main(
            ["serve", "replay", str(FIXTURE), "--strict"]
        )
        assert rc == 1
