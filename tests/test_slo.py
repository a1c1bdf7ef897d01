"""Percentile estimation and the declared serving-SLO gate.

:func:`~repro.obs.registry.estimate_percentile` turns the fixed-bucket
``serve.*_us`` histograms into tail estimates; :mod:`repro.obs.slo`
declares how much tail is acceptable and verdicts metrics or bench
artefacts.  These tests pin the estimator's edge cases (empty, single
bucket, overflow saturation, q clamping), the budget plumbing, both
evaluator paths, the CLI exit codes, and the ``repro obs bench``
integration — including that the *committed* ``BENCH_serve`` baseline
passes the default SLO, which is what CI's serve-smoke job relies on.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.bench import SERVE_SCHEMA
from repro.obs.registry import METRICS_SCHEMA, FixedHistogram, estimate_percentile
from repro.obs.slo import (
    DEFAULT_P99_BUDGETS_US,
    DEFAULT_SHED_BUDGET,
    SLO_SCHEMA,
    default_slo,
    evaluate_slo,
    render_slo_report,
)

BASELINE = (
    pathlib.Path(__file__).parent.parent
    / "benchmarks"
    / "baselines"
    / "BENCH_serve.json"
)


def hist_doc(bounds, counts):
    return {"bounds": list(bounds), "counts": list(counts),
            "sum": 0.0, "count": sum(counts)}


class TestEstimatePercentile:
    def test_empty_returns_none(self):
        assert estimate_percentile(FixedHistogram((1.0, 2.0)), 99) is None
        assert estimate_percentile(hist_doc((1.0, 2.0), (0, 0, 0)), 50) is None

    def test_live_and_dict_forms_agree(self):
        hist = FixedHistogram((10.0, 20.0, 40.0))
        for v in (5, 15, 15, 35):
            hist.observe(v)
        assert estimate_percentile(hist, 50) == estimate_percentile(
            hist.to_dict(), 50
        )

    def test_first_bucket_anchored_at_zero(self):
        # All mass in the first bucket: interpolate between 0 and 10.
        doc = hist_doc((10.0, 20.0), (4, 0, 0))
        assert estimate_percentile(doc, 50) == pytest.approx(5.0)
        assert estimate_percentile(doc, 100) == pytest.approx(10.0)

    def test_interpolates_within_owning_bucket(self):
        # 2 below 10, 2 in (10, 20]: p75 is the middle of the second bucket.
        doc = hist_doc((10.0, 20.0), (2, 2, 0))
        assert estimate_percentile(doc, 75) == pytest.approx(15.0)

    def test_overflow_saturates_at_last_bound(self):
        doc = hist_doc((10.0, 20.0), (1, 0, 9))
        assert estimate_percentile(doc, 99) == pytest.approx(20.0)

    def test_q_is_clamped(self):
        doc = hist_doc((10.0,), (4, 0))
        assert estimate_percentile(doc, -5) == pytest.approx(0.0)
        assert estimate_percentile(doc, 250) == pytest.approx(10.0)


class TestSloDeclaration:
    def test_default_budgets(self):
        slo = default_slo()
        assert slo.p99_budgets_us == DEFAULT_P99_BUDGETS_US
        assert slo.shed_fraction_budget == DEFAULT_SHED_BUDGET

    def test_overrides_apply(self):
        slo = default_slo({"select_latency": 123.0}, shed_budget=0.2)
        assert slo.p99_budgets_us["select_latency"] == 123.0
        assert slo.p99_budgets_us["apply"] == DEFAULT_P99_BUDGETS_US["apply"]
        assert slo.shed_fraction_budget == 0.2

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO stage"):
            default_slo({"warp_drive": 1.0})


def metrics_doc(p99_scale=1.0, shed=0, events=100):
    """A minimal ``repro.metrics/v1`` doc with serve stage histograms.

    All stage mass sits in one bucket at ``100 * p99_scale`` µs, so the
    estimated p99 tracks the scale linearly.
    """
    bound = 100.0 * p99_scale
    hists = {
        "serve.%s_us" % stage: hist_doc((bound, bound * 2), (0, 10, 0))
        for stage in ("queue_wait", "select_latency", "apply")
    }
    return {
        "schema": METRICS_SCHEMA,
        "merged": {
            "counters": {
                'serve.events_total{"type":"broadcast"}': float(events),
                'serve.shed_total{"type":"broadcast"}': float(shed),
            },
            "histograms": hists,
        },
    }


class TestEvaluate:
    def test_metrics_doc_within_budget(self):
        report = evaluate_slo(default_slo(), metrics_doc())
        assert report["schema"] == SLO_SCHEMA
        assert report["ok"] and not report["breaches"]
        names = {c["name"] for c in report["checks"]}
        assert names == {
            "p99:queue_wait", "p99:select_latency", "p99:apply",
            "shed_fraction",
        }

    def test_metrics_doc_tail_breach(self):
        # 100 ms stage tails blow the 50 ms select/apply budgets but not
        # the 5 s queue-wait budget.
        report = evaluate_slo(default_slo(), metrics_doc(p99_scale=1000.0))
        assert not report["ok"]
        assert set(report["breaches"]) == {
            "p99:select_latency", "p99:apply",
        }
        assert "BREACH" in render_slo_report(report)

    def test_metrics_doc_shed_breach(self):
        report = evaluate_slo(default_slo(), metrics_doc(shed=10))
        assert report["breaches"] == ["shed_fraction"]

    def test_non_serving_metrics_doc_rejected(self):
        doc = {"schema": METRICS_SCHEMA, "merged": {"counters": {}}}
        with pytest.raises(ValueError, match="no serve"):
            evaluate_slo(default_slo(), doc)

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="cannot evaluate"):
            evaluate_slo(default_slo(), {"schema": "repro.bench_shards/v1"})

    def test_bench_doc_checks_every_grid_point(self):
        doc = {
            "schema": SERVE_SCHEMA,
            "grid": [
                {"clients": 20, "p99_us": 200.0, "shed_fraction": 0.0},
                {"clients": 100, "p99_us": 90_000.0, "shed_fraction": 0.2},
            ],
        }
        report = evaluate_slo(default_slo(), doc)
        assert set(report["breaches"]) == {
            "p99:select_latency@100cl", "shed_fraction@100cl",
        }

    def test_empty_bench_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            evaluate_slo(default_slo(), {"schema": SERVE_SCHEMA, "grid": []})

    def test_committed_baseline_passes_default_slo(self):
        # CI's serve-smoke job runs `repro obs slo --once` against this
        # exact file; a red default SLO on the committed baseline would
        # brick every build.
        report = evaluate_slo(
            default_slo(), json.loads(BASELINE.read_text())
        )
        assert report["ok"], report["breaches"]


class TestSloCli:
    def test_once_green_on_committed_baseline(self, capsys):
        rc = main(["obs", "slo", "--once", "--path", str(BASELINE)])
        assert rc == 0
        assert "slo: OK" in capsys.readouterr().out

    def test_once_breach_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(metrics_doc(p99_scale=1000.0)))
        rc = main(["obs", "slo", "--once", "--path", str(path)])
        assert rc == 1
        assert "slo: BREACH" in capsys.readouterr().out

    def test_budget_override_tightens_gate(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(metrics_doc()))
        rc = main(["obs", "slo", "--once", "--path", str(path),
                   "--budget", "select_latency=1"])
        assert rc == 1
        assert "p99:select_latency" in capsys.readouterr().out

    def test_bad_budget_and_unknown_stage_exit_2(self, tmp_path, capsys):
        assert main(["obs", "slo", "--once", "--budget", "nonsense"]) == 2
        assert main(["obs", "slo", "--once",
                     "--budget", "warp_drive=1"]) == 2
        capsys.readouterr()

    def test_missing_artifact_exits_2(self, tmp_path, capsys):
        rc = main(["obs", "slo", "--once",
                   "--path", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "no artefact" in capsys.readouterr().err


class TestObsBenchSloWiring:
    def write(self, tmp_path, doc):
        path = tmp_path / "BENCH_serve.json"
        path.write_text(json.dumps(doc))
        return path

    def bench_doc(self, p99=200.0):
        return {
            "schema": SERVE_SCHEMA,
            "grid": [{"clients": 20, "probes_per_s": 9000.0,
                      "p99_us": p99, "shed_fraction": 0.0}],
            "max_probes_per_s": 9000.0,
        }

    def test_serve_candidate_gets_slo_verdict(self, tmp_path, capsys):
        path = self.write(tmp_path, self.bench_doc())
        rc = main(["obs", "bench", "--current", str(path),
                   "--baseline", str(path), "--tolerance", "0.35"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "slo: OK" in out

    def test_slo_breach_fails_gate_even_when_no_regression(
        self, tmp_path, capsys
    ):
        # p99 is informational for the *regression* gate (self-compare
        # passes) but the absolute budget still fails the command.
        path = self.write(tmp_path, self.bench_doc(p99=90_000.0))
        rc = main(["obs", "bench", "--current", str(path),
                   "--baseline", str(path), "--tolerance", "0.35"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "gate: OK" in out and "slo: BREACH" in out

    def test_no_slo_skips_the_layer(self, tmp_path, capsys):
        path = self.write(tmp_path, self.bench_doc(p99=90_000.0))
        rc = main(["obs", "bench", "--current", str(path),
                   "--baseline", str(path), "--tolerance", "0.35",
                   "--no-slo"])
        assert rc == 0
        assert "slo:" not in capsys.readouterr().out
