"""Tests for the bench-regression gate (repro.obs.bench + CLI).

Synthetic ``repro.bench_shards/v1`` documents drive the whole gate:
extraction, tolerance arithmetic, one-sided metrics, the trajectory
artefact, and the CLI exit codes CI keys off.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.bench import (
    BENCH_TOLERANCE_DEFAULT,
    append_trajectory,
    compare_bench,
    extract_bench_metrics,
    load_bench_doc,
    render_bench_report,
)


def shards_doc(speedups=(3.0, 5.0), stations=(200, 400), rate=1000.0):
    """One 4-shard grid point per station count."""
    grid = [
        {
            "stations": st,
            "shards": 4,
            "speedup": sp,
            "stations_per_s": rate * sp,
            "handoff_fraction": 0.01,
        }
        for st, sp in zip(stations, speedups)
    ]
    return {
        "schema": "repro.bench_shards/v1",
        "grid": grid,
        "max_speedup": max(speedups),
    }


class TestExtraction:
    def test_gated_and_informational_split(self):
        metrics = extract_bench_metrics(shards_doc())
        assert metrics["speedup@200st/4sh"]["gated"] is True
        assert metrics["max_speedup"]["gated"] is True
        assert metrics["handoff_fraction@200st/4sh"]["gated"] is False
        assert metrics["handoff_fraction@200st/4sh"]["higher_better"] is False
        assert metrics["stations_per_s@400st/4sh"]["gated"] is False

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            extract_bench_metrics({"schema": "repro.other/v1"})

    def test_load_rejects_schemaless(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_bench_doc(path)


class TestCompare:
    def test_identical_ok(self):
        report = compare_bench(shards_doc(), shards_doc())
        assert report["ok"] is True
        assert report["regressions"] == []
        assert report["schema"] == "repro.bench_compare/v1"
        assert report["tolerance"] == BENCH_TOLERANCE_DEFAULT

    def test_within_tolerance_ok(self):
        report = compare_bench(
            shards_doc(speedups=(2.9, 4.8)), shards_doc(), tolerance=0.05
        )
        assert report["ok"] is True

    def test_regression_beyond_tolerance_fails(self):
        report = compare_bench(
            shards_doc(speedups=(2.0, 5.0)), shards_doc(), tolerance=0.05
        )
        assert report["ok"] is False
        assert "speedup@200st/4sh" in report["regressions"]
        assert "speedup@400st/4sh" not in report["regressions"]

    def test_improvement_never_regresses(self):
        report = compare_bench(shards_doc(speedups=(9.0, 9.0)), shards_doc())
        assert report["ok"] is True

    def test_informational_metrics_never_gate(self):
        # Throughput 10x worse, speedups unchanged: still OK.
        report = compare_bench(shards_doc(rate=100.0), shards_doc(rate=1000.0))
        assert report["ok"] is True
        rate_row = next(
            d for d in report["deltas"]
            if d["metric"] == "stations_per_s@200st/4sh"
        )
        assert rate_row["gated"] is False
        assert rate_row["regressed"] is False

    def test_one_sided_metric_never_regresses(self):
        # max_speedup matches the baseline; only the grid point moved.
        current = shards_doc(speedups=(5.0,), stations=(800,))
        report = compare_bench(current, shards_doc())
        assert report["ok"] is True
        notes = {d["metric"]: d.get("note") for d in report["deltas"]}
        assert notes["speedup@800st/4sh"] == "only in current"
        assert notes["speedup@200st/4sh"] == "only in baseline"

    def test_schema_mismatch_raises(self):
        with pytest.raises(ValueError):
            compare_bench(shards_doc(), {"schema": "repro.other/v1"})

    def test_render_names_regressions(self):
        report = compare_bench(
            shards_doc(speedups=(1.0, 5.0)), shards_doc()
        )
        out = render_bench_report(report)
        assert "REGRESSED" in out
        assert "FAIL (speedup@200st/4sh" in out
        ok = render_bench_report(compare_bench(shards_doc(), shards_doc()))
        assert "gate: OK" in ok


class TestTrajectory:
    def test_appends_gated_values(self, tmp_path):
        path = tmp_path / "deep" / "trajectory.jsonl"
        report = compare_bench(shards_doc(), shards_doc())
        append_trajectory(path, report, meta={"commit": "abc123"})
        append_trajectory(path, report)
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["commit"] == "abc123"
        assert lines[0]["ok"] is True
        assert lines[0]["gated"]["speedup@200st/4sh"] == 3.0
        assert "stations_per_s@200st/4sh" not in lines[0]["gated"]


class TestCli:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_gate_passes(self, tmp_path, capsys):
        cur = self._write(tmp_path, "cur.json", shards_doc())
        base = self._write(tmp_path, "base.json", shards_doc())
        rc = main(["obs", "bench", "--current", cur, "--baseline", base])
        assert rc == 0
        assert "gate: OK" in capsys.readouterr().out

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        cur = self._write(
            tmp_path, "cur.json", shards_doc(speedups=(1.5, 5.0))
        )
        base = self._write(tmp_path, "base.json", shards_doc())
        rc = main(["obs", "bench", "--current", cur, "--baseline", base])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_tolerance_flag(self, tmp_path, capsys):
        cur = self._write(
            tmp_path, "cur.json", shards_doc(speedups=(2.0, 5.0))
        )
        base = self._write(tmp_path, "base.json", shards_doc())
        rc = main(
            ["obs", "bench", "--current", cur, "--baseline", base,
             "--tolerance", "0.5"]
        )
        assert rc == 0

    def test_trajectory_flag(self, tmp_path, capsys):
        cur = self._write(tmp_path, "cur.json", shards_doc())
        base = self._write(tmp_path, "base.json", shards_doc())
        traj = tmp_path / "trajectory.jsonl"
        rc = main(
            ["obs", "bench", "--current", cur, "--baseline", base,
             "--trajectory", str(traj)]
        )
        assert rc == 0
        assert traj.is_file()
        assert "trajectory appended" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", shards_doc())
        rc = main(
            ["obs", "bench", "--current", str(tmp_path / "nope.json"),
             "--baseline", base]
        )
        assert rc == 2
        assert "bench gate error" in capsys.readouterr().err

    def test_committed_baseline_is_comparable(self):
        """The committed baseline must stay loadable and self-compare OK."""
        baseline = load_bench_doc(
            pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks"
            / "baselines"
            / "BENCH_shards.json"
        )
        report = compare_bench(baseline, baseline)
        assert report["ok"] is True
        assert any(m.startswith("speedup@") for m in (
            d["metric"] for d in report["deltas"]
        ))
