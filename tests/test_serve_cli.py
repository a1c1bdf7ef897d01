"""The serve CLI surface and its observability artefacts.

``repro serve run`` must emit a standard ``repro.metrics/v1`` document
(so the whole ``obs`` toolchain works on serving runs) plus a valid
Prometheus exposition; ``repro serve bench`` must emit a
``repro.bench_serve/v1`` document the regression gate can compare
against the committed baseline — including the gated/informational
metric split this file pins.
"""

import json
import pathlib

import pytest

from repro.analysis.observability import load_metrics
from repro.cli import main
from repro.obs.bench import SERVE_SCHEMA, compare_bench, extract_bench_metrics

BASELINE = (
    pathlib.Path(__file__).parent.parent
    / "benchmarks"
    / "baselines"
    / "BENCH_serve.json"
)


def serve_doc(probes=(9000.0, 8000.0), shed=(0.0, 0.0)):
    grid = [
        {
            "clients": c,
            "probes_per_s": p,
            "p50_us": 25.0,
            "p99_us": 200.0,
            "shed_fraction": s,
            "rank_cache_hit_rate": 0.9,
        }
        for c, p, s in zip((20, 100), probes, shed)
    ]
    return {
        "schema": SERVE_SCHEMA,
        "grid": grid,
        "max_probes_per_s": max(probes),
    }


class TestServeSchema:
    def test_gated_and_informational_split(self):
        metrics = extract_bench_metrics(serve_doc())
        assert metrics["probes_per_s@20cl"]["gated"] is True
        assert metrics["shed_fraction@100cl"]["gated"] is True
        assert metrics["shed_fraction@100cl"]["higher_better"] is False
        assert metrics["max_probes_per_s"]["gated"] is True
        assert metrics["p50_us@20cl"]["gated"] is False
        assert metrics["p99_us@100cl"]["gated"] is False
        assert metrics["rank_cache_hit_rate@20cl"]["gated"] is False

    def test_throughput_regression_fails_gate(self):
        report = compare_bench(
            serve_doc(probes=(4000.0, 3500.0)),
            serve_doc(probes=(9000.0, 8000.0)),
            tolerance=0.35,
        )
        assert not report["ok"]
        assert "probes_per_s@20cl" in report["regressions"]

    def test_new_shedding_fails_gate(self):
        report = compare_bench(
            serve_doc(shed=(0.05, 0.0)), serve_doc(), tolerance=0.35
        )
        assert not report["ok"]
        assert report["regressions"] == ["shed_fraction@20cl"]

    def test_committed_baseline_loads_and_self_compares(self):
        doc = json.loads(BASELINE.read_text())
        assert doc["schema"] == SERVE_SCHEMA
        report = compare_bench(doc, doc, tolerance=0.35)
        assert report["ok"]
        gated = [d for d in report["deltas"] if d["gated"]]
        assert len(gated) == 2 * len(doc["grid"]) + 1


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

    @pytest.mark.parametrize(
        "command", [["run"], ["replay", "trace.jsonl"], ["bench"]]
    )
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


class TestServeBenchCli:
    def test_bench_doc_gates_against_committed_baseline(
        self, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_serve.json"
        rc = main(
            [
                "serve",
                "bench",
                "--clients",
                "8",
                "--events",
                "200",
                "--json",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == SERVE_SCHEMA
        capsys.readouterr()
        # Different grids compare without regressing (grid changes must
        # not brick the gate) — points only in one doc stay informational.
        # Tolerance is deliberately loose here: this unit test checks
        # plumbing on a tiny stream; the real 35 % gate runs in CI's
        # serve-smoke job against the full benchmark grid.
        rc = main(
            [
                "obs",
                "bench",
                "--current",
                str(out),
                "--baseline",
                str(BASELINE),
                "--tolerance",
                "0.9",
            ]
        )
        printed = capsys.readouterr().out
        assert "only in baseline" in printed
        assert rc == 0
