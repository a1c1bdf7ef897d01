"""The perfbench work-counter gate (``benchmarks/perfbench_counters.py``)."""

import json
import pathlib
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

OUTPUT = """\
# perfbench fig5-peak seed=1 seconds=1.0 trace=1 smoke
# digest abc
metric sim.events 9061.0 count
metric mobility.calls 3770.0 count
metric dot11.candidates 1359.0 count
metric devices.rx 843.0 count
metric core.selections 614.0 count
metric shards.records 0.0 count
metric obs.calls 5000.0 count
{"correct": true}
# perfbench city-day seed=1 seconds=1.0 trace=1 smoke
metric sim.events 240.0 count
metric mobility.calls 0.0 count
metric dot11.candidates 0.0 count
metric devices.rx 0.0 count
metric core.selections 0.0 count
metric shards.records 54.0 count
"""


@pytest.fixture
def gate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    sys.modules.pop("perfbench_counters", None)
    import perfbench_counters

    return perfbench_counters


def test_parse_keeps_only_gated_counters(gate):
    counters = gate.parse_counters(OUTPUT)
    assert sorted(counters) == ["city-day", "fig5-peak"]
    assert counters["fig5-peak"]["sim.events"] == 9061
    assert counters["city-day"]["shards.records"] == 54
    assert set(counters["fig5-peak"]) == set(gate.COUNTERS)


def test_equal_passes_rise_fails_fall_notes(gate):
    baseline = gate.parse_counters(OUTPUT)
    assert gate.compare(baseline, baseline) == ([], [])
    current = json.loads(json.dumps(baseline))
    current["city-day"]["shards.records"] = 55
    current["fig5-peak"]["mobility.calls"] = 3000
    failures, notes = gate.compare(baseline, current)
    assert failures == ["city-day shards.records rose: 54 -> 55"]
    assert notes == ["fig5-peak mobility.calls fell: 3770 -> 3000"]


def test_missing_workload_or_counter_fails(gate):
    baseline = gate.parse_counters(OUTPUT)
    current = json.loads(json.dumps(baseline))
    del current["city-day"]
    del current["fig5-peak"]["devices.rx"]
    current["serve-open"] = dict(baseline["city-day"])
    failures, _ = gate.compare(baseline, current)
    assert failures == [
        "city-day: workload missing from the run",
        "fig5-peak devices.rx: missing from the run",
        "serve-open: workload missing from the baseline",
    ]


def test_cli_exit_codes(gate, tmp_path, monkeypatch, capsys):
    """``--write`` records a run; the next run passes against it, and a
    run with one more event fails."""
    monkeypatch.setattr(gate, "BASELINE", tmp_path / "base.json")
    monkeypatch.setattr(gate, "run_perfbench", lambda: OUTPUT)
    assert gate.main(["--write"]) == 0
    assert gate.main([]) == 0
    more = OUTPUT.replace("metric sim.events 240.0", "metric sim.events 241.0")
    monkeypatch.setattr(gate, "run_perfbench", lambda: more)
    assert gate.main([]) == 1
    assert "FAIL: city-day sim.events rose: 240 -> 241" in capsys.readouterr().out


def test_committed_baseline_covers_every_workload(gate):
    doc = json.loads(gate.BASELINE.read_text())
    counters = doc["counters"]
    assert sorted(counters) == ["city-day", "fig5-peak", "serve-open", "tables-frame"]
    for values in counters.values():
        assert set(values) == set(gate.COUNTERS)
        assert all(isinstance(v, int) and v >= 0 for v in values.values())
