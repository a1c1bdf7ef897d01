#!/usr/bin/env python
"""Sharded-city benchmark: stations-stepped/sec vs shard count.

Runs the same :class:`~repro.sim.shards.ShardScenario` at every shard
count in the grid and measures throughput.  A shard computes positions
and sensor distances only for the scans of an epoch, so an epoch costs
O(scans x candidate sensors) at any shard count.  All grid points run
inline in one process, where extra shards save no work and add the
handoff protocol; the ``speedup`` column (wall of 1 shard over wall of
k shards) bounds that overhead and read 0.74-1.37x over three runs on a
2-vCPU VM.  The
shard count buys parallelism only in process mode, with cores to
spare.  Every grid point must reproduce the 1-shard digest
bit-for-bit — the determinism contract is re-checked on every
benchmark run, not just in the golden tests.

Writes ``BENCH_shards.json`` to the artefact directory
(``REPRO_ARTIFACT_DIR``, default ``benchmarks/out``) and prints the
table.  ``--assert-stations-per-s X`` exits non-zero unless the 4-shard
point at ``--assert-at`` stations steps at least ``X`` stations/s — the
absolute floor CI's shard-smoke job enforces at 2000 stations.

``--chaos`` appends a fault-tolerance section: the 2000-station point
re-run in process mode three ways (clean, with epoch-barrier
checkpoints, and with checkpoints plus an injected mid-run shard
crash).  Each variant's digest must equal the inline grid baseline, so
the checkpoint/recovery overhead lands in the artefact alongside a
hard determinism check.

Usage::

    PYTHONPATH=src python benchmarks/bench_shards.py [--assert-stations-per-s X]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _shared import emit, out_dir  # noqa: E402
from repro.sim.shards import ShardScenario, run_sharded  # noqa: E402

SCHEMA = "repro.bench_shards/v1"
ARTIFACT = "BENCH_shards.json"

STATION_GRID = (2000, 4000)
SHARD_GRID = (1, 2, 4)
SENSORS = 400
SIZE_M = 2400.0
EPOCH_S = 2.0
DURATION_S = 240.0
SEED = 11

# --chaos variants: checkpoint cadence and the epoch the injected crash
# fires at.  The crash epoch sits past several barriers so recovery
# replays real workload (120 epochs total at 2 s each).
CHAOS_STATIONS = 2000
CHAOS_SHARDS = 4
CHAOS_CKPT_EVERY = 20
CHAOS_CRASH_EPOCH = 60


def _scenario(stations):
    return ShardScenario(
        stations=stations,
        sensors=SENSORS,
        duration=DURATION_S,
        seed=SEED,
        size_m=SIZE_M,
        epoch_s=EPOCH_S,
    )


def _run_point(stations, shards, epoch_trace=False):
    scenario = _scenario(stations)
    start = time.perf_counter()
    result = run_sharded(
        scenario,
        shards=shards,
        mode="inline",
        collect_states=False,
        epoch_trace=epoch_trace,
    )
    wall = time.perf_counter() - start
    # stations * epochs = station-steps performed, a size-invariant rate
    return {
        "stations": stations,
        "shards": shards,
        "wall_s": round(wall, 4),
        "stations_per_s": round(stations * result.epochs / wall, 1),
        "handoff_fraction": round(
            result.wall_handoff_s / wall if wall > 0 else 0.0, 4
        ),
        "hits": result.summary["hits"],
        "digest": result.digest(),
    }


def _chaos_variant(name, baseline_digest, faults=None, ckpt_every=0):
    scenario = _scenario(CHAOS_STATIONS)
    start = time.perf_counter()
    result = run_sharded(
        scenario,
        shards=CHAOS_SHARDS,
        mode="process",
        collect_states=False,
        faults=faults,
        ckpt_every=ckpt_every,
    )
    wall = time.perf_counter() - start
    counters = result.metrics.get("counters", {})
    return {
        "variant": name,
        "wall_s": round(wall, 4),
        "digest_ok": result.digest() == baseline_digest,
        "ckpt_writes": int(counters.get("shardops.ckpt.writes", 0)),
        "ckpt_bytes": int(counters.get("shardops.ckpt.bytes", 0)),
        "crashes": int(counters.get("shardops.recovery.crashes", 0)),
        "respawns": int(counters.get("shardops.recovery.respawns", 0)),
        "rollback_epochs": int(
            counters.get("shardops.recovery.rollback_epochs", 0)
        ),
    }


def run_chaos(baseline_digest):
    """The three process-mode variants the --chaos section compares."""
    from repro.faults.plan import FaultPlan
    from repro.faults.shards import ShardFaultParams

    plan = FaultPlan(
        seed=SEED,
        shard_faults=ShardFaultParams(crash_epoch=CHAOS_CRASH_EPOCH),
    )
    variants = [
        _chaos_variant("process-clean", baseline_digest),
        _chaos_variant(
            "process-ckpt", baseline_digest, ckpt_every=CHAOS_CKPT_EVERY
        ),
        _chaos_variant(
            "process-crash-recover",
            baseline_digest,
            faults=plan,
            ckpt_every=CHAOS_CKPT_EVERY,
        ),
    ]
    clean_wall = variants[0]["wall_s"]
    for v in variants:
        v["overhead"] = round(
            v["wall_s"] / clean_wall - 1.0 if clean_wall > 0 else 0.0, 4
        )
        if not v["digest_ok"]:
            raise AssertionError(
                "chaos variant %r drifted from the inline baseline digest"
                % v["variant"]
            )
    return {
        "stations": CHAOS_STATIONS,
        "shards": CHAOS_SHARDS,
        "ckpt_every": CHAOS_CKPT_EVERY,
        "crash_epoch": CHAOS_CRASH_EPOCH,
        "variants": variants,
    }


def run_grid(epoch_trace=False):
    grid = []
    for stations in STATION_GRID:
        base = None
        for shards in SHARD_GRID:
            # Trace only the largest shard count: one-shard points have
            # no handoff and each traced point overwrites epochs-*.jsonl.
            point = _run_point(
                stations, shards,
                epoch_trace=epoch_trace and shards == max(SHARD_GRID),
            )
            if base is None:
                base = point
            if point["digest"] != base["digest"]:
                raise AssertionError(
                    "shard invariance violated at %d stations: "
                    "%d shards digest %s != 1 shard %s"
                    % (stations, shards, point["digest"], base["digest"])
                )
            point["speedup"] = round(base["wall_s"] / point["wall_s"], 2)
            grid.append(point)
    return grid


def render(grid):
    lines = [
        "Sharded-city benchmark: stations-stepped/sec vs shard count",
        f"{SENSORS} sensors, {SIZE_M:.0f} m sq, epoch {EPOCH_S:.0f} s, "
        f"{DURATION_S:.0f} sim s, seed {SEED}",
        "",
        f"{'stations':>8} {'shards':>6} {'wall s':>8} {'st/s':>10} "
        f"{'handoff':>8} {'speedup':>8} {'hits':>6}",
    ]
    for p in grid:
        lines.append(
            f"{p['stations']:>8} {p['shards']:>6} {p['wall_s']:>8.3f} "
            f"{p['stations_per_s']:>10.0f} {p['handoff_fraction']:>8.4f} "
            f"{p['speedup']:>7.2f}x {p['hits']:>6}"
        )
    lines.append("")
    lines.append("digests identical across shard counts: OK")
    return "\n".join(lines)


def render_chaos(chaos):
    lines = [
        "",
        f"Chaos: {chaos['stations']} stations / {chaos['shards']} shards, "
        f"process mode, ckpt every {chaos['ckpt_every']} epochs, crash at "
        f"epoch {chaos['crash_epoch']}",
        "",
        f"{'variant':>22} {'wall s':>8} {'overhead':>9} {'ckpts':>6} "
        f"{'crash':>6} {'rollbk':>6} {'digest':>7}",
    ]
    for v in chaos["variants"]:
        lines.append(
            f"{v['variant']:>22} {v['wall_s']:>8.3f} "
            f"{v['overhead'] * 100:>8.1f}% {v['ckpt_writes']:>6} "
            f"{v['crashes']:>6} {v['rollback_epochs']:>6} "
            f"{'OK' if v['digest_ok'] else 'DRIFT':>7}"
        )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--assert-stations-per-s",
        type=float,
        default=None,
        metavar="X",
        help="fail unless max shards at --assert-at stations steps X stations/s",
    )
    parser.add_argument(
        "--assert-at",
        type=int,
        default=2000,
        metavar="N",
        help="station count the --assert-stations-per-s floor applies at "
        "(default 2000)",
    )
    parser.add_argument(
        "--epoch-trace",
        action="store_true",
        help="record per-epoch barrier spans for the max-shard points and "
        "export epoch_trace.json (Chrome trace-event JSON)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="append the process-mode checkpoint/recovery overhead section "
        "(clean vs checkpointed vs crash-and-recover)",
    )
    args = parser.parse_args(argv)

    grid = run_grid(epoch_trace=args.epoch_trace)
    doc = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "sensors": SENSORS,
        "size_m": SIZE_M,
        "epoch_s": EPOCH_S,
        "duration_s": DURATION_S,
        "seed": SEED,
        "grid": grid,
        "max_speedup": max(p["speedup"] for p in grid),
    }
    table = render(grid)
    if args.chaos:
        baseline = next(
            p["digest"] for p in grid if p["stations"] == CHAOS_STATIONS
        )
        doc["chaos"] = run_chaos(baseline)
        table += "\n" + render_chaos(doc["chaos"])
    artifact = out_dir() / ARTIFACT
    artifact.write_text(json.dumps(doc, indent=2) + "\n")
    emit("bench_shards", table)
    print(f"\nwrote {artifact}")

    if args.epoch_trace:
        from repro.obs.epochs import epoch_trace_doc, load_epoch_dir
        from repro.obs.records import telemetry_dir, write_json

        records = load_epoch_dir(telemetry_dir(out_dir()))
        if records:
            trace = write_json(
                out_dir() / "epoch_trace.json", epoch_trace_doc(records)
            )
            print(f"wrote {trace}")
        else:
            print("no epoch spans recorded (all traced points single-shard?)")

    if args.assert_stations_per_s is not None:
        floor = args.assert_stations_per_s
        at = "%d stations / %d shards" % (args.assert_at, max(SHARD_GRID))
        rates = [
            p["stations_per_s"]
            for p in grid
            if p["stations"] == args.assert_at and p["shards"] == max(SHARD_GRID)
        ]
        if not rates:
            print("FAIL: no %s grid point to assert on" % at)
            return 1
        if rates[0] < floor:
            print(
                "FAIL: %s stepped only %.0f stations/s (< %.0f)"
                % (at, rates[0], floor)
            )
            return 1
        print(
            "throughput floor OK: %.0f stations/s >= %.0f at %s"
            % (rates[0], floor, at)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
