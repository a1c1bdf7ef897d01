"""Gate on perfbench's work counters, against a committed baseline.

Runs the benchmark's traced smoke pass over every workload::

    python3 perfbench/run.py --workload all --smoke --trace 1

and compares six work counters per workload (``sim.events``,
``mobility.calls``, ``dot11.candidates``, ``devices.rx``,
``core.selections``, ``shards.records``) with
``benchmarks/perfbench_counters.json``.  The counters count work, not
time: they repeat exactly for a seed on any host, so a rise means the
program does more work for the same run and fails the gate, while a
fall prints a note (regenerate the baseline to keep the gain).

Usage, from the repository root::

    python3 benchmarks/perfbench_counters.py           # compare (~15 s)
    python3 benchmarks/perfbench_counters.py --write   # regenerate baseline

A change that regenerates the baseline says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = pathlib.Path(__file__).resolve().with_name("perfbench_counters.json")
RUN_ARGS = ("perfbench/run.py", "--workload", "all", "--smoke", "--trace", "1")
COUNTERS = (
    "sim.events",
    "mobility.calls",
    "dot11.candidates",
    "devices.rx",
    "core.selections",
    "shards.records",
)

Counters = Dict[str, Dict[str, int]]


def parse_counters(text: str) -> Counters:
    """Workload -> counter -> value, from perfbench's printed output
    (a ``# perfbench <workload> ...`` header, then ``metric`` lines)."""
    out: Counters = {}
    workload = None
    for line in text.splitlines():
        if line.startswith("# perfbench "):
            workload = line.split()[2]
            out[workload] = {}
        elif line.startswith("metric ") and workload is not None:
            _, name, value, _unit = line.split()
            if name in COUNTERS:
                out[workload][name] = int(float(value))
    return out


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


def run_perfbench() -> str:
    """The traced smoke pass's output; raises if perfbench fails."""
    proc = subprocess.run(
        [sys.executable, *RUN_ARGS],
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
    current = parse_counters(run_perfbench())
    if args.write:
        doc = {"command": "python3 " + " ".join(RUN_ARGS), "counters": current}
        BASELINE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print("wrote %s" % BASELINE)
        return 0
    baseline = json.loads(BASELINE.read_text())["counters"]
    failures, notes = compare(baseline, current)
    for line in notes:
        print("note: %s (regenerate the baseline with --write to keep it)" % line)
    for line in failures:
        print("FAIL: %s" % line)
    if not failures:
        print("perfbench counters: %d workload(s) at or below the baseline"
              % len(baseline))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
