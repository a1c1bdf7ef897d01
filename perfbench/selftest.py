#!/usr/bin/env python3
"""The benchmark's own checks.  Run from the repository root::

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` declares every metric ``run.py`` knows, once.
2. Every workload runs at smoke size, untraced and traced; each run
   passes its output checks, prints only declared metrics with their
   declared units, and ends with a result line holding exactly the
   end-to-end (untraced) or per-layer (traced) metrics.
3. A corrupted expected digest makes the command fail.
4. Without the program next to it, the command fails without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CHECKS = []


def expect(ok: bool, what: str) -> None:
    CHECKS.append(ok)
    if not ok:
        print("FAIL  %s" % what)


def bench(*args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=900,
    )


def declared() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    names = [w["name"] for w in doc["workloads"]]
    expect(names == list(run.WORKLOADS), "workloads declared in run order")
    expect(e2e == run.END_TO_END, "end-to-end metrics declared with units")
    expect(layer == run.PER_LAYER, "per-layer metrics declared with units")
    expect(not set(e2e) & set(layer), "no metric declared twice")
    expect(all(w["why"] for w in doc["workloads"]), "every workload has a why")
    return {"e2e": e2e, "layer": layer}


def check_output(proc, decl: dict, traced: bool, label: str) -> dict:
    """Validate one ``--workload all`` output; returns digest by workload."""
    expect(proc.returncode == 0, "%s exits 0" % label)
    units = dict(decl["e2e"], **decl["layer"])
    want = decl["layer"] if traced else decl["e2e"]
    digests, current = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("# perfbench "):
            current = line.split()[2]
        elif line.startswith("# digest "):
            digests[current] = line.split()[2]
        elif line.startswith("# missing hook"):
            expect(False, "%s %s: %s" % (label, current, line))
        elif line.startswith("metric "):
            _, name, _value, unit = line.split()
            expect(units.get(name) == unit,
                   "%s %s prints declared %s [%s]" % (label, current, name, unit))
        elif line.startswith("{"):
            doc = json.loads(line)
            expect(set(doc) == {"correct", "attempted", "failed", "metrics"},
                   "%s %s result keys" % (label, current))
            expect(doc["correct"] is True, "%s %s checks pass" % (label, current))
            expect(set(doc["metrics"]) == set(want),
                   "%s %s result holds exactly the %s metrics"
                   % (label, current, "per-layer" if traced else "end-to-end"))
    expect(sorted(digests) == sorted(run.WORKLOADS),
           "%s ran every workload" % label)
    return digests


def main() -> int:
    decl = declared()

    plain = bench("--workload", "all", "--smoke", "--seed", "3")
    digests = check_output(plain, decl, False, "smoke")
    traced = bench("--workload", "all", "--smoke", "--seed", "3", "--trace", "1")
    traced_digests = check_output(traced, decl, True, "traced smoke")
    expect(digests == traced_digests, "traced digests equal untraced digests")

    good = digests.get("city-day", "0" * 64)
    bad = ("1" if good[0] == "0" else "0") + good[1:]
    proc = bench("--workload", "city-day", "--smoke", "--seed", "3",
                 "--expect-digest", bad)
    last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
    expect(proc.returncode != 0 and json.loads(last[0]).get("correct") is False,
           "a corrupted expected digest fails the run")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "city-day", "--seed", "1", "--seconds", "1",
                 cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program the command fails and prints no result")

    failures = CHECKS.count(False)
    print("%d checks, %d failure(s)" % (len(CHECKS), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
