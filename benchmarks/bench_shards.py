#!/usr/bin/env python
"""Sharded-city checkpoint/recovery report: what fault tolerance costs.

Runs one :class:`~repro.sim.shards.ShardScenario` (2000 stations, 4
shards) inline for the reference digest, then in process mode three
ways: clean, with epoch-barrier checkpoints, and with checkpoints plus
an injected mid-run shard crash.  Each variant's digest must equal the
inline reference, so the checkpoint/recovery overhead is reported next
to a hard determinism check; the script fails when one drifts.

The table goes to ``bench_shards.txt`` in the artefact directory
(``REPRO_ARTIFACT_DIR``, default ``benchmarks/out``).  It is a report,
not a gate: the shard plane's throughput is gated by perfbench's
city-day workload (``benchmarks/perfbench_counters.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_shards.py
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _shared import emit  # noqa: E402
from repro.sim.shards import ShardScenario, run_sharded  # noqa: E402

STATIONS = 2000
SHARDS = 4
SENSORS = 400
SIZE_M = 2400.0
EPOCH_S = 2.0
DURATION_S = 240.0
SEED = 11

# Checkpoint cadence and the epoch the injected crash fires at.  The
# crash falls between barriers, so recovery rolls back to the barrier
# at epoch 60 and replays 10 epochs (120 epochs total at 2 s each); a
# crash on a barrier epoch would replay none.
CKPT_EVERY = 20
CRASH_EPOCH = 70


def _scenario():
    return ShardScenario(
        stations=STATIONS,
        sensors=SENSORS,
        duration=DURATION_S,
        seed=SEED,
        size_m=SIZE_M,
        epoch_s=EPOCH_S,
    )


def _variant(name, reference_digest, faults=None, ckpt_every=0):
    start = time.perf_counter()
    result = run_sharded(
        _scenario(),
        shards=SHARDS,
        mode="process",
        collect_states=False,
        faults=faults,
        ckpt_every=ckpt_every,
    )
    wall = time.perf_counter() - start
    counters = result.metrics.get("counters", {})
    return {
        "variant": name,
        "wall_s": wall,
        "digest_ok": result.digest() == reference_digest,
        "ckpt_writes": int(counters.get("shardops.ckpt.writes", 0)),
        "crashes": int(counters.get("shardops.recovery.crashes", 0)),
        "rollback_epochs": int(
            counters.get("shardops.recovery.rollback_epochs", 0)
        ),
    }


def run_chaos():
    """The three process-mode variants, each checked against the
    digest of one inline run."""
    from repro.faults.plan import FaultPlan
    from repro.faults.shards import ShardFaultParams

    reference = run_sharded(
        _scenario(), shards=SHARDS, mode="inline", collect_states=False
    ).digest()
    plan = FaultPlan(
        seed=SEED, shard_faults=ShardFaultParams(crash_epoch=CRASH_EPOCH)
    )
    variants = [
        _variant("process-clean", reference),
        _variant("process-ckpt", reference, ckpt_every=CKPT_EVERY),
        _variant(
            "process-crash-recover",
            reference,
            faults=plan,
            ckpt_every=CKPT_EVERY,
        ),
    ]
    clean_wall = variants[0]["wall_s"]
    for v in variants:
        v["overhead"] = v["wall_s"] / clean_wall - 1.0 if clean_wall > 0 else 0.0
        if not v["digest_ok"]:
            raise AssertionError(
                "chaos variant %r drifted from the inline reference digest"
                % v["variant"]
            )
    return variants


def render(variants):
    lines = [
        "Sharded-city checkpoint/recovery overhead",
        f"{STATIONS} stations / {SHARDS} shards, {SENSORS} sensors, "
        f"{SIZE_M:.0f} m sq, epoch {EPOCH_S:.0f} s, {DURATION_S:.0f} sim s, "
        f"seed {SEED}; process mode, ckpt every {CKPT_EVERY} epochs, "
        f"crash at epoch {CRASH_EPOCH}",
        "",
        f"{'variant':>22} {'wall s':>8} {'overhead':>9} {'ckpts':>6} "
        f"{'crash':>6} {'rollbk':>6} {'digest':>7}",
    ]
    for v in variants:
        lines.append(
            f"{v['variant']:>22} {v['wall_s']:>8.3f} "
            f"{v['overhead'] * 100:>8.1f}% {v['ckpt_writes']:>6} "
            f"{v['crashes']:>6} {v['rollback_epochs']:>6} "
            f"{'OK' if v['digest_ok'] else 'DRIFT':>7}"
        )
    lines.append("")
    lines.append("every variant reproduced the inline 4-shard digest: OK")
    return "\n".join(lines)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    emit("bench_shards", render(run_chaos()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
