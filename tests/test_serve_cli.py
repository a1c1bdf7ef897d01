"""The serve CLI surface and its observability artefacts.

``repro serve run`` must emit a standard ``repro.metrics/v1`` document
(so the whole ``obs`` toolchain works on serving runs) plus a valid
Prometheus exposition, and must refuse stream sizes below one before
serving anything.
"""

import pytest

from repro.analysis.observability import load_metrics
from repro.cli import main


class TestServeRunCli:
    @pytest.fixture(scope="class")
    def run_artifacts(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("serve_run") / "metrics.json"
        rc = main(
            [
                "serve",
                "run",
                "--clients",
                "10",
                "--events",
                "300",
                "--metrics-out",
                str(out),
            ]
        )
        assert rc == 0
        return out

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
        assert gauges["serve.clients"] == 10

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
        [("--clients", "0"), ("--clients", "-3"), ("--events", "0"),
         ("--events", "many"), ("--queue-max", "0")],
    )
    def test_bad_size_rejected(self, option, value, tmp_path, capsys):
        """A size below one exits 2 at argparse, naming the option,
        before any stream is served or artefact written."""
        out = tmp_path / "metrics.json"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "run", option, value, "--metrics-out", str(out)])
        assert exc.value.code == 2
        assert "argument %s:" % option in capsys.readouterr().err
        assert not out.exists()
