"""The perfbench gate (``benchmarks/perfbench_counters.py``): work
counters from the traced smoke pass, timings from three untraced ones."""

import json
import math
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

TIMED = """\
# perfbench fig5-peak seed=1 seconds=1.0 trace=0 smoke
# setup samples 0.9678 reference s (1.2429 wall s)
metric setup_s 0.96 s
metric sim_s_per_s 3600.0 s/s
metric peak_rss_mb 83.0 MB
metric probes_per_s 1881.9 1/s
{"correct": true}
# perfbench city-day seed=1 seconds=1.0 trace=0 smoke
metric setup_s 0.16 s
metric sim_s_per_s 5000.0 s/s
metric peak_rss_mb 42.6 MB
metric station_steps_per_s 768076.9 1/s
"""


def timed(fig5=(0.96, 3600.0), city=(0.16, 5000.0)):
    """An untraced pass's output with the given (setup_s, sim_s_per_s)."""
    return "\n".join([
        "# perfbench fig5-peak seed=1 seconds=1.0 trace=0 smoke",
        "metric setup_s %r s" % fig5[0],
        "metric sim_s_per_s %r s/s" % fig5[1],
        "# perfbench city-day seed=1 seconds=1.0 trace=0 smoke",
        "metric setup_s %r s" % city[0],
        "metric sim_s_per_s %r s/s" % city[1],
    ]) + "\n"


@pytest.fixture
def gate(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    sys.modules.pop("perfbench_counters", None)
    import perfbench_counters

    return perfbench_counters


def fake_runs(gate, monkeypatch, counters=OUTPUT, passes=None):
    """Serve ``counters`` for the traced pass and ``passes`` in turn for
    the untraced ones (``TIMED`` every time by default)."""
    queue = list(passes) if passes is not None else None

    def run(args):
        if tuple(args) == gate.RUN_ARGS:
            return counters
        assert tuple(args) == gate.TIMING_ARGS
        return TIMED if queue is None else queue.pop(0)

    monkeypatch.setattr(gate, "run_perfbench", run)
    return queue


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
    fake_runs(gate, monkeypatch)
    assert gate.main(["--write"]) == 0
    fake_runs(gate, monkeypatch)
    assert gate.main([]) == 0
    more = OUTPUT.replace("metric sim.events 240.0", "metric sim.events 241.0")
    fake_runs(gate, monkeypatch, counters=more)
    assert gate.main([]) == 1
    assert "FAIL: city-day sim.events rose: 240 -> 241" in capsys.readouterr().out


def test_untraced_output_parses_to_timings(gate):
    assert gate.parse_timings(TIMED) == {
        "fig5-peak": {"setup_s": 0.96, "sim_s_per_s": 3600.0},
        "city-day": {"setup_s": 0.16, "sim_s_per_s": 5000.0},
    }
    # The traced pass prints no end-to-end metric, and the untraced one
    # no counter: each tier reads only its own pass.
    assert gate.parse_timings(OUTPUT) == {"fig5-peak": {}, "city-day": {}}
    assert gate.parse_counters(TIMED) == {"fig5-peak": {}, "city-day": {}}


def test_median_of_the_passes_is_compared(gate, tmp_path, monkeypatch, capsys):
    passes = [timed(city=(0.16, s)) for s in (1000.0, 4900.0, 9000.0)]
    median = gate.median_timings([gate.parse_timings(p) for p in passes])
    assert median["city-day"] == {"setup_s": 0.16, "sim_s_per_s": 4900.0}

    monkeypatch.setattr(gate, "BASELINE", tmp_path / "base.json")
    fake_runs(gate, monkeypatch)
    assert gate.main(["--write"]) == 0
    # One slow pass out of three is outvoted...
    fake_runs(gate, monkeypatch, passes=passes)
    assert gate.main([]) == 0
    # ...two are not.
    passes = [timed(city=(0.16, s)) for s in (1000.0, 3000.0, 9000.0)]
    queue = fake_runs(gate, monkeypatch, passes=passes)
    assert gate.main([]) == 1
    assert queue == []
    assert "FAIL: city-day sim_s_per_s 5000 -> 3000" in capsys.readouterr().out


def test_bound_edges(gate):
    bounds = gate.load_bounds()
    base = gate.parse_timings(TIMED)
    _, down = bounds["sim_s_per_s"]
    _, up = bounds["setup_s"]
    floor = (1.0 - down) * 5000.0
    ceiling = (1.0 + up) * 0.16

    def verdict(sim_s_per_s=5000.0, setup_s=0.16):
        current = json.loads(json.dumps(base))
        current["city-day"] = {"setup_s": setup_s, "sim_s_per_s": sim_s_per_s}
        return gate.compare_timings(base, current, bounds)[0]

    assert verdict() == []
    assert verdict(sim_s_per_s=floor) == []
    failures = verdict(sim_s_per_s=math.nextafter(floor, 0.0))
    assert len(failures) == 1 and failures[0].startswith("city-day sim_s_per_s")
    # Faster and quicker to set up never fails.
    assert verdict(sim_s_per_s=50000.0, setup_s=0.01) == []
    assert verdict(setup_s=ceiling) == []
    failures = verdict(setup_s=math.nextafter(ceiling, 1.0))
    assert len(failures) == 1 and failures[0].startswith("city-day setup_s")


def test_missing_timed_workload_or_metric_fails(gate):
    bounds = gate.load_bounds()
    base = gate.parse_timings(TIMED)
    current = json.loads(json.dumps(base))
    del current["city-day"]
    del current["fig5-peak"]["sim_s_per_s"]
    current["serve-open"] = dict(base["fig5-peak"])
    failures, readings = gate.compare_timings(base, current, bounds)
    assert failures == [
        "city-day: workload missing from the timed runs",
        "fig5-peak sim_s_per_s: missing from the timed runs",
        "serve-open: workload missing from the baseline",
    ]
    assert len(readings) == 1 and readings[0].startswith("fig5-peak setup_s")
    stale = json.loads(json.dumps(base))
    del stale["city-day"]["setup_s"]
    failures, _ = gate.compare_timings(stale, base, bounds)
    assert failures == ["city-day setup_s: missing from the baseline"]


def test_bounds_come_from_benchmark_json(gate, tmp_path, monkeypatch, capsys):
    """The gate restates no bound: editing BENCHMARK.json's moves the
    verdict on the same readings."""
    doc = json.loads(gate.BENCHMARK.read_text())
    assert gate.load_bounds() == {
        m["name"]: (m["better"], m["bound"])
        for m in doc["end_to_end"] if m["name"] in gate.TIMINGS
    }
    monkeypatch.setattr(gate, "BASELINE", tmp_path / "base.json")
    fake_runs(gate, monkeypatch)
    assert gate.main(["--write"]) == 0
    slower = [timed(city=(0.16, 4000.0))] * 3  # 20 % below the baseline
    fake_runs(gate, monkeypatch, passes=slower)
    assert gate.main([]) == 0

    for metric in doc["end_to_end"]:
        if metric["name"] == "sim_s_per_s":
            metric["bound"] = 0.1
    monkeypatch.setattr(gate, "BENCHMARK", tmp_path / "BENCHMARK.json")
    gate.BENCHMARK.write_text(json.dumps(doc))
    assert gate.load_bounds()["sim_s_per_s"] == ("higher", 0.1)
    fake_runs(gate, monkeypatch, passes=slower)
    capsys.readouterr()
    assert gate.main([]) == 1
    assert "FAIL: city-day sim_s_per_s" in capsys.readouterr().out


def test_write_records_both_tiers(gate, tmp_path, monkeypatch):
    """The baseline's timings are the median of nine passes, three times
    as many as a comparison takes."""
    monkeypatch.setattr(gate, "BASELINE", tmp_path / "base.json")
    assert gate.BASELINE_PASSES == 3 * gate.TIMING_PASSES == 9
    passes = [timed(fig5=(1.0 + i, 3000.0 + i)) for i in range(9)]
    queue = fake_runs(gate, monkeypatch, passes=passes)
    assert gate.main(["--write"]) == 0
    assert queue == []
    doc = json.loads(gate.BASELINE.read_text())
    assert doc["counters"] == gate.parse_counters(OUTPUT)
    assert doc["timings"] == {
        "fig5-peak": {"setup_s": 5.0, "sim_s_per_s": 3004.0},
        "city-day": {"setup_s": 0.16, "sim_s_per_s": 5000.0},
    }
    assert doc["command"].endswith("--trace 1")
    assert doc["timing_command"].endswith("--trace 0")
    assert doc["timing_passes"] == 9


def test_rewrite_keeps_committed_counters(gate, tmp_path, monkeypatch):
    """Rewriting the baseline from a run that reads the committed
    counters writes every committed counter value back unchanged."""
    committed = json.loads(gate.BASELINE.read_text())
    lines = []
    for workload, values in committed["counters"].items():
        lines.append("# perfbench %s seed=1 seconds=1.0 trace=1 smoke" % workload)
        lines += ["metric %s %r count" % (n, float(v)) for n, v in values.items()]
    monkeypatch.setattr(gate, "BASELINE", tmp_path / "base.json")
    fake_runs(gate, monkeypatch, counters="\n".join(lines) + "\n")
    assert gate.main(["--write"]) == 0
    assert json.loads(gate.BASELINE.read_text())["counters"] == committed["counters"]


def test_committed_baseline_covers_every_workload(gate):
    doc = json.loads(gate.BASELINE.read_text())
    workloads = ["city-day", "fig5-peak", "serve-open", "tables-frame"]
    counters = doc["counters"]
    assert sorted(counters) == workloads
    for values in counters.values():
        assert set(values) == set(gate.COUNTERS)
        assert all(isinstance(v, int) and v >= 0 for v in values.values())
    timings = doc["timings"]
    assert sorted(timings) == workloads
    for values in timings.values():
        assert set(values) == set(gate.TIMINGS)
        assert all(v > 0 for v in values.values())
