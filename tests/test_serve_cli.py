"""The serve CLI surface and its observability artefacts.

``repro serve run`` records a venue's simulated probe stream, serves it
and reports whether the service decided exactly as the simulation did.
It must emit a standard ``repro.metrics/v1`` document (so the whole
``obs`` toolchain works on serving runs) plus a valid Prometheus
exposition, and must refuse a duration that is not a positive number
before serving anything.
"""

import contextlib
import io

import pytest

from repro.analysis.observability import load_metrics
from repro.cli import main


def _serve_run(*argv):
    """(exit code, stdout) of one ``repro serve run``."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = main(["serve", "run", *argv])
    return rc, printed.getvalue()


class TestServeRunCli:
    @pytest.fixture(scope="class")
    def run_artifacts(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("serve_run") / "metrics.json"
        rc, printed = _serve_run("--duration", "300", "--metrics-out", str(out))
        assert rc == 0
        out.with_name("report.txt").write_text(printed)
        return out

    def test_decisions_equal_simulation(self, run_artifacts):
        report = run_artifacts.with_name("report.txt").read_text()
        assert "recorded at the University Canteen (300 s, seed 7)" in report
        assert "0 shed" in report
        assert "decisions equal the simulation's: yes" in report

    def test_diverging_decisions_exit_1(self, tmp_path, monkeypatch):
        """A service that decides differently from the simulation (and
        shed nothing) fails the command."""
        from repro.serve import record

        real = record.record_probe_stream

        def one_decision_short(*args, **kwargs):
            recording = real(*args, **kwargs)
            recording.decisions.pop()
            return recording

        monkeypatch.setattr(record, "record_probe_stream", one_decision_short)
        rc, printed = _serve_run(
            "--duration", "120", "--metrics-out", str(tmp_path / "m.json")
        )
        assert rc == 1
        assert "decisions equal the simulation's: NO" in printed

    def test_shed_probes_reported(self, tmp_path):
        """Shedding changes the served stream, so the decisions differ
        from the simulation's; the command says why and succeeds."""
        rc, printed = _serve_run(
            "--duration", "120", "--shed", "--queue-max", "1",
            "--metrics-out", str(tmp_path / "m.json"),
        )
        assert rc == 0
        assert "decisions equal the simulation's: no, " in printed
        assert "probe(s) shed" in printed

    def test_metrics_doc_is_standard_schema(self, run_artifacts):
        doc = load_metrics(run_artifacts)  # raises on schema violations
        assert doc["run_count"] == 1
        run = doc["runs"][0]
        assert run["attacker"] == "serve"
        counters = doc["merged"]["counters"]
        assert counters['serve.events_total{"type":"broadcast"}'] > 0
        assert 'serve.decisions_total{"kind":"burst"}' in counters
        assert any(
            k.startswith("serve.select_latency_us")
            for k in doc["merged"]["histograms"]
        )
        gauges = doc["merged"]["gauges"]
        assert gauges["serve.db_size"] > 0
        assert gauges["serve.clients"] > 0

    @pytest.mark.parametrize("command", [["run"], ["replay", "trace.jsonl"]])
    def test_workers_option_rejected(self, command, capsys):
        """One consumer: the serve commands take no worker count."""
        with pytest.raises(SystemExit):
            main(["serve", *command, "--workers", "2"])
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_prom_exposition_written(self, run_artifacts):
        from repro.obs.prom import validate_prom_text

        prom = run_artifacts.with_suffix(".prom")
        assert prom.exists()
        assert validate_prom_text(prom.read_text()) > 0

    @pytest.mark.parametrize(
        "option, value",
        [("--duration", "0"), ("--duration", "-3"), ("--duration", "nan"),
         ("--duration", "many"), ("--queue-max", "0")],
    )
    def test_bad_size_rejected(self, option, value, tmp_path, capsys):
        """A duration that is not a finite positive number, or a queue
        bound below one, exits 2 at argparse, naming the option, before
        any stream is recorded or artefact written."""
        out = tmp_path / "metrics.json"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "run", option, value, "--metrics-out", str(out)])
        assert exc.value.code == 2
        assert "argument %s:" % option in capsys.readouterr().err
        assert not out.exists()
