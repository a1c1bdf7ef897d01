"""Percentile estimation and the declared serving-SLO gate.

:func:`~repro.obs.registry.estimate_percentile` turns the fixed-bucket
``serve.*_us`` histograms into tail estimates; :mod:`repro.obs.slo`
declares how much tail is acceptable and verdicts a serving run's
metrics artefact.  These tests pin the estimator's edge cases (empty,
single bucket, overflow saturation, q clamping), the budget plumbing,
the evaluator and the CLI exit codes.
"""

import json

import pytest

from repro.cli import main
from repro.obs.registry import METRICS_SCHEMA, FixedHistogram, estimate_percentile
from repro.obs.slo import (
    DEFAULT_P99_BUDGETS_US,
    DEFAULT_SHED_BUDGET,
    SLO_SCHEMA,
    default_slo,
    evaluate_slo,
    render_slo_report,
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


class TestSloCli:
    def test_once_green_within_budget(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(metrics_doc()))
        rc = main(["obs", "slo", "--once", "--path", str(path)])
        assert rc == 0
        assert "slo: OK (4 check(s))" in capsys.readouterr().out

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
