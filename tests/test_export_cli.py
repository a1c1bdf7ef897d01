"""Tests for session export (repro.analysis.export) and the CLI."""

import csv
import io
import json

import pytest

from repro.analysis.export import (
    CLIENT_FIELDS,
    clients_to_csv,
    load_summary,
    session_to_json,
)
from repro.analysis.session import AttackSession
from repro.cli import build_parser, main


def _session():
    s = AttackSession()
    s.observe_probe("mac-a", 1.0, direct=False)
    s.record_sent("mac-a", 1.0, [("pop", "wigle", "pb")])
    s.record_hit("mac-a", 2.0, "pop")
    s.observe_probe("mac-b", 3.0, direct=True)
    s.record_db_size(0.0, 280)
    return s


class TestCsvExport:
    def test_roundtrip_structure(self):
        text = clients_to_csv(_session())
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert list(rows[0]) == CLIENT_FIELDS

    def test_values(self):
        rows = list(csv.DictReader(io.StringIO(clients_to_csv(_session()))))
        a = rows[0]
        assert a["mac"] == "mac-a"
        assert a["connected"] == "1"
        assert a["hit_ssid"] == "pop"
        assert a["hit_position"] == "1"
        b = rows[1]
        assert b["direct_prober"] == "1"
        assert b["hit_ssid"] == ""

    def test_empty_session(self):
        rows = list(csv.DictReader(io.StringIO(clients_to_csv(AttackSession()))))
        assert rows == []


class TestJsonExport:
    def test_document_contents(self):
        doc = json.loads(session_to_json(_session(), label="demo"))
        assert doc["label"] == "demo"
        assert doc["clients"]["total"] == 2
        assert doc["connected"]["broadcast"] == 1
        assert doc["rates"]["h"] == pytest.approx(0.5)
        assert doc["breakdown"]["source"]["wigle"] == 1
        assert doc["db_size_series"] == [{"time": 0.0, "size": 280}]

    def test_load_summary_roundtrip(self):
        doc = load_summary(session_to_json(_session()))
        assert doc["clients"]["total"] == 2

    def test_load_summary_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_summary('{"nope": 1}')


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--attacker", "karma"])
        assert args.attacker == "karma"
        args = parser.parse_args(["table", "4"])
        assert args.number == "4"
        args = parser.parse_args(["fig", "5", "--venue", "passage", "--slots", "0"])
        assert args.slots == [0]

    def test_run_command(self, capsys, tmp_path):
        csv_path = tmp_path / "clients.csv"
        json_path = tmp_path / "summary.json"
        rc = main(
            [
                "run",
                "--attacker",
                "mana",
                "--duration",
                "200",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mana at the University Canteen" in out
        assert csv_path.exists() and json_path.exists()
        doc = load_summary(json_path.read_text())
        assert doc["label"] == "mana"

    def test_table4_command(self, capsys):
        assert main(["table", "4"]) == 0
        out = capsys.readouterr().out
        assert "#HKAirport Free WiFi" in out

    def test_fig4_command(self, capsys):
        assert main(["fig", "4"]) == 0
        assert "heat map" in capsys.readouterr().out

    def test_city_command(self, capsys):
        assert main(["city"]) == 0
        out = capsys.readouterr().out
        assert "top-5 SSIDs by AP count" in out

    def test_fig5_subset_command(self, capsys):
        rc = main(["fig", "5", "--venue", "canteen", "--slots", "2"])
        assert rc == 0
        assert "10am-11am" in capsys.readouterr().out

    def test_unknown_attacker_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--attacker", "wifi-pineapple"])


class TestReport:
    def test_report_structure_and_verdicts(self):
        """A tiny-duration report still produces every section."""
        from repro.analysis.validation import targets
        from repro.experiments.report import generate_report

        text = generate_report(
            duration=180.0, fig5_slots=(4,), fig5_slot_duration=240.0
        )
        assert "# City-Hunter reproduction report" in text
        assert "## Tables" in text
        assert "## Figures" in text
        assert "## Paper-target verdicts" in text
        assert "Table IV" in text
        # Every registered target gets a verdict line.
        assert text.count("[OK") + text.count("[OUT") == len(targets())

    def test_report_cli_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        rc = main(
            [
                "report",
                "--duration",
                "120",
                "--slot-duration",
                "120",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()
        assert "Paper-target verdicts" in out.read_text()
