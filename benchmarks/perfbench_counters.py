"""Gate on perfbench's work counters and timings, against a committed baseline.

Two tiers, one baseline file (``benchmarks/perfbench_counters.json``).

**Tier 1, work counters.**  The traced smoke pass over every workload::

    python3 perfbench/run.py --workload all --smoke --trace 1

gives six work counters per workload (``sim.events``,
``mobility.calls``, ``dot11.candidates``, ``devices.rx``,
``core.selections``, ``shards.records``).  The counters count work, not
time: they repeat exactly for a seed on any host, so a rise means the
program does more work for the same run and fails the gate, while a
fall prints a note (regenerate the baseline to keep the gain).

**Tier 2, timings.**  The untraced smoke pass::

    python3 perfbench/run.py --workload all --smoke --trace 0

runs three times.  Each workload's median ``setup_s`` and
``sim_s_per_s`` over the three passes, in reference seconds, is
compared with the baseline under the ``end_to_end`` bounds of
``BENCHMARK.json``: ``sim_s_per_s`` fails below (1 - bound) x baseline
and ``setup_s`` above (1 + bound) x baseline.  The reference seconds
are scaled by perfbench's calibration loop (``CALIB_REF_S``), so a
host that changes speed reads about the same.  Another interpreter
version can change the loop's speed and the workloads' by different
factors, so the baseline holds only for the version it records
(``python``).

Usage, from the repository root::

    python3 benchmarks/perfbench_counters.py           # compare (~45 s)
    python3 benchmarks/perfbench_counters.py --write   # regenerate baseline

``--write`` records both tiers, the timings as the median of nine
passes (~2 min).  A change that regenerates the baseline says why in
CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = pathlib.Path(__file__).resolve().with_name("perfbench_counters.json")
BENCHMARK = ROOT / "BENCHMARK.json"
RUN_ARGS = ("perfbench/run.py", "--workload", "all", "--smoke", "--trace", "1")
TIMING_ARGS = RUN_ARGS[:-1] + ("0",)
TIMING_PASSES = 3
BASELINE_PASSES = 3 * TIMING_PASSES
"""``--write`` times three times as many passes as a comparison, so the
baseline's own noise is small next to a gate run's."""
COUNTERS = (
    "sim.events",
    "mobility.calls",
    "dot11.candidates",
    "devices.rx",
    "core.selections",
    "shards.records",
)
TIMINGS = ("setup_s", "sim_s_per_s")

Counters = Dict[str, Dict[str, int]]
Timings = Dict[str, Dict[str, float]]
Bounds = Dict[str, Tuple[str, float]]


def parse_metrics(text: str, names: Sequence[str]) -> Timings:
    """Workload -> metric -> value for the metrics in ``names``, from
    perfbench's printed output (a ``# perfbench <workload> ...`` header,
    then ``metric`` lines)."""
    out: Timings = {}
    workload = None
    for line in text.splitlines():
        if line.startswith("# perfbench "):
            workload = line.split()[2]
            out[workload] = {}
        elif line.startswith("metric ") and workload is not None:
            _, name, value, _unit = line.split()
            if name in names:
                out[workload][name] = float(value)
    return out


def parse_counters(text: str) -> Counters:
    return {
        workload: {name: int(value) for name, value in values.items()}
        for workload, values in parse_metrics(text, COUNTERS).items()
    }


def parse_timings(text: str) -> Timings:
    return parse_metrics(text, TIMINGS)


def median_timings(passes: List[Timings]) -> Timings:
    """Each workload's median reading of each timing, over the passes."""
    readings: Dict[str, Dict[str, List[float]]] = {}
    for timings in passes:
        for workload, values in timings.items():
            for name, value in values.items():
                readings.setdefault(workload, {}).setdefault(name, []).append(value)
    return {
        workload: {name: statistics.median(v) for name, v in values.items()}
        for workload, values in readings.items()
    }


def compare(baseline: Counters, current: Counters) -> Tuple[List[str], List[str]]:
    """``(failures, notes)``: a counter above its baseline, or missing
    from the run, fails; one below it is a note."""
    failures: List[str] = []
    notes: List[str] = []
    for workload, want in sorted(baseline.items()):
        got = current.get(workload)
        if got is None:
            failures.append("%s: workload missing from the run" % workload)
            continue
        for name in COUNTERS:
            if name not in got:
                failures.append("%s %s: missing from the run" % (workload, name))
            elif got[name] > want[name]:
                failures.append(
                    "%s %s rose: %d -> %d" % (workload, name, want[name], got[name])
                )
            elif got[name] < want[name]:
                notes.append(
                    "%s %s fell: %d -> %d" % (workload, name, want[name], got[name])
                )
    for workload in sorted(set(current) - set(baseline)):
        failures.append("%s: workload missing from the baseline" % workload)
    return failures, notes


def load_bounds() -> Bounds:
    """``metric -> (better, bound)`` for the gated timings, from the
    ``end_to_end`` list of ``BENCHMARK.json``."""
    doc = json.loads(BENCHMARK.read_text())
    return {
        m["name"]: (m["better"], float(m["bound"]))
        for m in doc["end_to_end"]
        if m["name"] in TIMINGS
    }


def compare_timings(
    baseline: Timings, current: Timings, bounds: Bounds
) -> Tuple[List[str], List[str]]:
    """``(failures, readings)``: a median worse than its baseline by more
    than the metric's bound, or missing from either side, fails; every
    reading within its bound is listed in ``readings``."""
    failures: List[str] = []
    readings: List[str] = []
    for workload, want in sorted(baseline.items()):
        got = current.get(workload)
        if got is None:
            failures.append("%s: workload missing from the timed runs" % workload)
            continue
        for name in TIMINGS:
            if name not in want:
                failures.append("%s %s: missing from the baseline" % (workload, name))
                continue
            if name not in got:
                failures.append("%s %s: missing from the timed runs" % (workload, name))
                continue
            better, bound = bounds[name]
            base, value = want[name], got[name]
            if better == "higher":
                limit = (1.0 - bound) * base
                worse = value < limit
            else:
                limit = (1.0 + bound) * base
                worse = value > limit
            line = "%s %s %.4g -> %.4g (%+.1f %%, limit %.4g)" % (
                workload, name, base, value, 100.0 * (value / base - 1.0), limit)
            (failures if worse else readings).append(line)
    for workload in sorted(set(current) - set(baseline)):
        failures.append("%s: workload missing from the baseline" % workload)
    return failures, readings


def run_perfbench(args: Sequence[str]) -> str:
    """One perfbench pass's output; raises if perfbench fails."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    return proc.stdout


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the baseline from this run")
    args = parser.parse_args(argv)
    counters = parse_counters(run_perfbench(RUN_ARGS))
    passes = BASELINE_PASSES if args.write else TIMING_PASSES
    timings = median_timings(
        [parse_timings(run_perfbench(TIMING_ARGS)) for _ in range(passes)]
    )
    if args.write:
        doc = {
            "command": "python3 " + " ".join(RUN_ARGS),
            "counters": counters,
            "timing_command": "python3 " + " ".join(TIMING_ARGS),
            "timing_passes": BASELINE_PASSES,
            "python": platform.python_version(),
            "timings": timings,
        }
        BASELINE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print("wrote %s" % BASELINE)
        return 0
    baseline = json.loads(BASELINE.read_text())
    failures, notes = compare(baseline["counters"], counters)
    timing_failures, readings = compare_timings(
        baseline["timings"], timings, load_bounds()
    )
    for line in notes:
        print("note: %s (regenerate the baseline with --write to keep it)" % line)
    for line in readings:
        print("timing: %s" % line)
    for line in failures + timing_failures:
        print("FAIL: %s" % line)
    if not failures:
        print("perfbench counters: %d workload(s) at or below the baseline"
              % len(baseline["counters"]))
    if not timing_failures:
        print("perfbench timings: %d workload(s) within BENCHMARK.json's "
              "bounds of the baseline (median of %d passes)"
              % (len(baseline["timings"]), TIMING_PASSES))
    return 1 if failures or timing_failures else 0


if __name__ == "__main__":
    sys.exit(main())
