#!/usr/bin/env python3
"""The repository benchmark: four paper workloads, timed from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5-peak --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --smoke      # every workload, small
    python3 perfbench/selftest.py                        # the benchmark's own checks

Each workload runs in a fresh interpreter (``worker.py``) with every
``REPRO_*`` variable removed and the artefact directory pointed at a
scratch directory under ``.perfbench/``, so neither a stray setting nor
``benchmarks/out`` can change or record a run.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` is the separate
traced run that prints the per-layer metrics.  Every metric is printed
as ``metric <name> <value> <unit>``, and the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when an output check fails, 2 when the program is
missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

WORKLOADS = ("fig5-peak", "tables-frame", "city-day", "serve-open")

END_TO_END = {
    "setup_s": "s",
    "sim_s_per_s": "s/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.city_s": "s",
    "setup.wigle_s": "s",
    "setup.seed_s": "s",
    "setup.warmup_s": "s",
    "sim.events": "count",
    "sim.self_s": "s",
    "mobility.calls": "count",
    "mobility.self_s": "s",
    "dot11.tx": "count",
    "dot11.deliveries": "count",
    "dot11.candidates": "count",
    "dot11.useful_ratio": "ratio",
    "dot11.self_s": "s",
    "devices.rx": "count",
    "devices.scans": "count",
    "devices.self_s": "s",
    "population.people": "count",
    "population.self_s": "s",
    "attacks.probes": "count",
    "attacks.self_s": "s",
    "core.selections": "count",
    "core.empty_ratio": "ratio",
    "core.hits": "count",
    "core.self_s": "s",
    "analysis.records": "count",
    "analysis.self_s": "s",
    "experiments.runs": "count",
    "experiments.overhead_s": "s",
    "shards.epochs": "count",
    "shards.phase_a_s": "s",
    "shards.phase_b_s": "s",
    "shards.exchange_s": "s",
    "shards.records": "count",
    "shards.imbalance": "ratio",
    "station_steps_per_s": "1/s",
    "probes_per_s": "1/s",
    "serve.queue_wait_ms.p99": "ms",
    "serve.handle_s": "s",
    "serve.transport_s": "s",
    "serve.decisions": "count",
    "serve.no_decision_ratio": "ratio",
    "serve.rank_cache_hit_ratio": "ratio",
    "serve.gen_late_ms.p99": "ms",
    "r1000.p50_ms": "ms",
    "r1000.p99_ms": "ms",
    "r1000.miss_frac": "ratio",
    "r2000.p50_ms": "ms",
    "r2000.p99_ms": "ms",
    "r2000.miss_frac": "ratio",
    "h_b_err_pp": "pp",
    "failed_frac": "ratio",
    "obs.calls": "count",
    "obs.self_s": "s",
    "gc.gen2_collections": "count",
    "gc.pause_s": "s",
    "gc.max_pause_ms": "ms",
    "host.calib_s": "s",
    "host.wall_setup_s": "s",
    "host.wall_sim_s_per_s": "s/s",
    "trace.overhead_ratio": "ratio",
}
"""Layer metrics; a layer the workload bypasses reads 0."""

SETUP_SAMPLES = 3
"""Set-up is timed in this many fresh processes; the median is reported."""

RUN_BUDGET_S = 170.0


def hermetic_env(artifacts: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_ARTIFACT_DIR"] = str(artifacts)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, scratch: Path, env: dict, deadline: float,
               setup_only: bool = False) -> dict:
    out = scratch / ("setup-%d.json" % time.monotonic_ns()
                     if setup_only else "result.json")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=str(ROOT), env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise RuntimeError("worker exited with %d" % proc.returncode)
    return json.loads(out.read_text())


def run_one(args) -> int:
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    scratch = WORK / ("run-%s-%d" % (args.workload, os.getpid()))
    if scratch.exists():
        shutil.rmtree(scratch)
    (scratch / "artifacts").mkdir(parents=True)
    env = hermetic_env(scratch / "artifacts")
    try:
        samples = []
        if not args.trace and not args.smoke:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(run_worker(args, scratch, env, deadline, True))
        doc = run_worker(args, scratch, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s failed: %s" % (args.workload, exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    samples.append(doc)
    doc["setup_samples"] = [
        {k: s[k] for k in ("setup_s", "setup_wall_s")} for s in samples]

    checks = list(doc["checks"])
    if args.expect_digest:
        checks.append({
            "name": "digest equals --expect-digest",
            "ok": doc["digest"] == args.expect_digest,
            "detail": "%s (expected %s)" % (doc["digest"], args.expect_digest),
        })
    correct = all(c["ok"] for c in checks)
    summary = doc["summary"]
    measured = dict(summary, **{"host.wall_setup_s": statistics.median(
        s["setup_wall_s"] for s in samples)})
    for part, seconds in doc["setup_parts"].items():
        measured["setup." + part] = seconds
    values = dict(measured, peak_rss_mb=doc["peak_rss_mb"],
                  setup_s=statistics.median(s["setup_s"] for s in samples))
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }

    print("# perfbench %s seed=%d seconds=%s trace=%d%s" % (
        args.workload, args.seed, args.seconds, args.trace,
        " smoke" if args.smoke else ""))
    print("# settings %s" % json.dumps(doc["settings"], sort_keys=True))
    print("# setup samples %s reference s (%s wall s)" % (
        " ".join("%.4f" % s["setup_s"] for s in samples),
        " ".join("%.4f" % s["setup_wall_s"] for s in samples)))
    print("# digest %s" % doc["digest"])
    for name in doc.get("missing_hooks", ()):
        print("# missing hook %s" % name)
    for c in checks:
        print("# check %s  %s  %s" % (
            "ok  " if c["ok"] else "FAIL", c["name"], c["detail"]))
    for name in sorted(k for k in summary if k.endswith(".samples")):
        print("# %s %d" % (name, summary[name]))
    for name, m in metrics.items():
        print("metric %s %r %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        # Layer-level numbers an untraced run still measures, for reading
        # next to the end-to-end ones; the traced run reports them all.
        for name, unit in PER_LAYER.items():
            if name in measured:
                print("metric %s %r %s" % (name, float(measured[name]), unit))

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc["correct"] = correct
    doc["wall_s"] = time.monotonic() - start
    (results / ("%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))).write_text(
            json.dumps(doc, indent=1, sort_keys=True, default=str))

    print(json.dumps({
        "correct": correct,
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every workload in well under a minute")
    parser.add_argument("--expect-digest", default="",
                        help="fail unless the run's digest equals this one "
                             "(compare two commits)")
    args = parser.parse_args(argv)
    if args.smoke and args.seconds == parser.get_default("seconds"):
        args.seconds = 1.0

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program at %s" % (ROOT / "src" / "repro"),
              file=sys.stderr)
        return 2
    # Byte-compile once, untimed: a user pays for it once, not per run.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)

    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in WORKLOADS:
        status = max(status, run_one(argparse.Namespace(**dict(
            vars(args), workload=name))))
    return status


if __name__ == "__main__":
    sys.exit(main())
