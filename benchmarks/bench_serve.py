#!/usr/bin/env python
"""Serving-layer benchmark: sustained probes/s vs client count.

Pushes a deterministic synthetic probe stream (broadcast-heavy city
traffic with a direct-probe minority and association feedback) through
a fresh :class:`~repro.serve.core.RankingCore` behind the async
:class:`~repro.serve.service.RankingService` at every grid point, and
measures sustained throughput plus exact p50/p99 burst-selection
latency.

Writes ``BENCH_serve.json`` to the artefact directory
(``REPRO_ARTIFACT_DIR``, default ``benchmarks/out``) and prints the
table.  ``--assert-probes X`` exits non-zero unless the best grid point
sustains at least ``X`` probes/s — the load-smoke floor CI's
serve-smoke job enforces.

The committed baseline (``benchmarks/baselines/BENCH_serve.json``)
carries deliberately conservative throughput numbers — a fraction of
what a dev machine measures — so the ``repro obs bench`` gate catches
order-of-magnitude regressions without tripping on runner noise.

When the committed baseline exists, every run also appends its gated
metrics to ``bench_trajectory.jsonl`` next to the artefact (the same
file CI's ``repro obs bench --trajectory`` writes), so local runs feed
the serve perf trajectory too.  ``--req-trace`` turns on per-probe
request tracing for the heaviest grid point and exports the Chrome
trace-event timeline as ``req_trace.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--assert-probes 2000]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _shared import emit, out_dir  # noqa: E402
from repro.obs.bench import (  # noqa: E402
    append_trajectory,
    compare_bench,
    load_bench_doc,
)
from repro.obs.records import telemetry_dir, write_json  # noqa: E402
from repro.obs.reqtrace import load_reqtrace_dir, req_trace_doc  # noqa: E402
from repro.serve.workload import run_bench_grid  # noqa: E402

ARTIFACT = "BENCH_serve.json"
BASELINE = Path(__file__).resolve().parent / "baselines" / ARTIFACT
TRAJECTORY = "bench_trajectory.jsonl"
TRAJECTORY_TOLERANCE = 0.35

CLIENT_GRID = (20, 100)
N_EVENTS = 4000
SEED = 0
CITY_SEED = 42


def render(doc):
    lines = [
        "Serving benchmark: sustained probes/s vs client count",
        f"{doc['n_events']} events per stream, seed {doc['seed']}, "
        f"best of {doc['repeats']} run(s) per point",
        "",
        f"{'clients':>8} {'probes/s':>10} {'p50 us':>8} "
        f"{'p99 us':>8} {'shed':>6} {'cache':>6}",
    ]
    for p in doc["grid"]:
        cache = (
            f"{p['rank_cache_hit_rate']:.2f}"
            if p["rank_cache_hit_rate"] is not None
            else "-"
        )
        lines.append(
            f"{p['clients']:>8} {p['probes_per_s']:>10} "
            f"{p['p50_us']:>8.1f} {p['p99_us']:>8.1f} "
            f"{p['shed_fraction']:>6.3f} {cache:>6}"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--assert-probes",
        type=float,
        default=None,
        metavar="X",
        help="fail unless the best grid point sustains X probes/s",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        metavar="N",
        help="runs per grid point; the fastest is kept (default 1)",
    )
    parser.add_argument(
        "--req-trace",
        action="store_true",
        help="trace the heaviest grid point; export req_trace.json",
    )
    args = parser.parse_args(argv)

    doc = run_bench_grid(
        clients=CLIENT_GRID,
        n_events=N_EVENTS,
        seed=SEED,
        city_seed=CITY_SEED,
        repeats=args.repeats,
        req_trace=args.req_trace,
    )
    doc["python"] = platform.python_version()
    doc["machine"] = platform.machine()
    artifact = out_dir() / ARTIFACT
    artifact.write_text(json.dumps(doc, indent=2) + "\n")
    emit("bench_serve", render(doc))
    print(f"\nwrote {artifact}")

    if args.req_trace:
        records = load_reqtrace_dir(telemetry_dir())
        if not records:
            print("FAIL: --req-trace captured no request spans")
            return 1
        trace_path = out_dir() / "req_trace.json"
        write_json(trace_path, req_trace_doc(records))
        print(f"wrote {trace_path} ({len(records)} span(s))")

    # Feed the serve perf trajectory on every local run too, not only
    # from CI's `repro obs bench --trajectory` step.  Informational:
    # the regression *gate* stays in CI where tolerance is pinned.
    if BASELINE.exists():
        report = compare_bench(
            doc, load_bench_doc(BASELINE), tolerance=TRAJECTORY_TOLERANCE
        )
        trajectory = append_trajectory(
            out_dir() / TRAJECTORY,
            report,
            meta={"source": "bench_serve.py"},
        )
        print(
            "trajectory %s -> %s (vs committed baseline)"
            % ("ok" if report["ok"] else "REGRESSED", trajectory)
        )

    if args.assert_probes is not None:
        best = doc["max_probes_per_s"]
        if best < args.assert_probes:
            print(
                "FAIL: best grid point sustained only %.0f probes/s "
                "(< %.0f)" % (best, args.assert_probes)
            )
            return 1
        print(
            "load floor OK: %.0f probes/s >= %.0f"
            % (best, args.assert_probes)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
