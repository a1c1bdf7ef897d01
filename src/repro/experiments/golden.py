"""The canonical golden-equivalence batch.

A small, fixed set of runs — two attackers, two venue profiles, one
fault-injected run — whose merged metrics digest is committed as a
repository fixture (``tests/data/golden_metrics.digest``).  The golden
tests assert the digest is reproduced

* at any ``REPRO_WORKERS`` value (merge is spec-order, not
  scheduling-order);
* with lineage tracing on *and* off (tracing only observes);

so any change that moves simulation behaviour — intentional or not —
shows up as a reviewable per-section diff, not a silent drift.
A second batch (:func:`golden_shard_specs`, fixture
``tests/data/golden_shards.digest``) pins the district-sharded city
engine the same way: its digest must be reproduced at any
``REPRO_SHARDS`` count.  Regenerate the fixtures with
``python tests/regen_golden.py`` after an intentional change.

Durations are short (5 simulated minutes) to keep the batch affordable
in CI while still crossing every hot path: probe/response bursts, hits,
adaptation, Gilbert–Elliott channel faults.
"""

from __future__ import annotations

import dataclasses
import os
from typing import List, Optional

from repro.experiments.parallel import (
    RunResult,
    RunSpec,
    metrics_doc,
    resolve_workers,
    run_specs,
)
from repro.faults.plan import FaultPlan, GilbertElliottParams
from repro.faults.shards import ShardFaultParams
from repro.sim.shards.checkpoint import CKPT_EVERY_ENV
from repro.sim.shards.engine import (
    SHARD_MODE_ENV,
    SHARDS_ENV,
    resolve_shards,
)
from repro.sim.shards.scenario import ShardScenario

GOLDEN_DURATION_S = 300.0
GOLDEN_SHARD_DURATION_S = 240.0

#: The chaos variant of the shard batch: crash the seed-hashed target
#: shard at this epoch, checkpoint every this many epochs.  Both sit
#: well inside the 240 s / 2 s = 120-epoch golden runs, so the recovery
#: replays real workload and the digest must still match the fixture.
GOLDEN_CHAOS_CRASH_EPOCH = 20
GOLDEN_CHAOS_CKPT_EVERY = 8


def golden_chaos_plan() -> FaultPlan:
    """The deterministic shard-crash plan the chaos CI job injects."""
    return FaultPlan(
        seed=13,
        shard_faults=ShardFaultParams(crash_epoch=GOLDEN_CHAOS_CRASH_EPOCH),
    )


def golden_specs() -> List[RunSpec]:
    """The fixed batch; any edit here requires regenerating the fixture."""
    return [
        RunSpec(
            attacker="cityhunter",
            venue="canteen",
            seed=101,
            duration=GOLDEN_DURATION_S,
            tag="golden-cityhunter-canteen",
        ),
        RunSpec(
            attacker="karma",
            venue="passage",
            seed=202,
            duration=GOLDEN_DURATION_S,
            tag="golden-karma-passage",
        ),
        RunSpec(
            attacker="cityhunter",
            venue="passage",
            seed=303,
            duration=GOLDEN_DURATION_S,
            tag="golden-cityhunter-faults",
            faults=FaultPlan(channel=GilbertElliottParams()),
        ),
    ]


def run_golden(workers: Optional[int] = None) -> dict:
    """Run the golden batch and return its metrics artefact document."""
    results: List[RunResult] = run_specs(
        golden_specs(), workers=workers, metrics_name="golden_metrics"
    )
    return metrics_doc(results, workers=resolve_workers(workers))


def golden_shard_specs() -> List[RunSpec]:
    """The sharded-city golden batch (fixture:
    ``tests/data/golden_shards.digest``).

    Three scenarios sized so 1/2/4 shards all own real work (six
    district columns, walkers crossing shard seams throughout) while
    staying CI-cheap.  The shard count is deliberately *not* in the
    specs — it comes from ``REPRO_SHARDS`` — so one fixture digest pins
    every shard count and both executor widths.
    """
    return [
        RunSpec(
            attacker="cityhunter",
            seed=111,
            tag="golden-shards-a",
            shard_scenario=ShardScenario(
                stations=240,
                sensors=24,
                duration=GOLDEN_SHARD_DURATION_S,
                seed=111,
                size_m=720.0,
            ),
        ),
        RunSpec(
            attacker="cityhunter",
            seed=222,
            tag="golden-shards-b",
            shard_scenario=ShardScenario(
                stations=180,
                sensors=16,
                duration=GOLDEN_SHARD_DURATION_S,
                seed=222,
                size_m=720.0,
                epoch_s=3.0,
                open_share=0.4,
            ),
        ),
        RunSpec(
            attacker="cityhunter",
            seed=333,
            tag="golden-shards-c",
            shard_scenario=ShardScenario(
                stations=300,
                sensors=32,
                duration=GOLDEN_SHARD_DURATION_S,
                seed=333,
                size_m=960.0,
                burst_size=8,
            ),
        ),
    ]


def run_golden_shards(
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    chaos: bool = False,
) -> dict:
    """Run the sharded golden batch at ``shards`` and return its metrics
    artefact document.

    ``shards`` is applied by (temporarily) setting ``REPRO_SHARDS`` —
    the same path a user takes — so the artefact exercises exactly the
    env plumbing the CI shard-smoke job drives.

    ``chaos=True`` is the fault-tolerance gate: every spec gets
    :func:`golden_chaos_plan` (one shard crashes mid-run), the batch is
    forced into process mode with ``REPRO_SHARD_CKPT_EVERY`` set, and
    the digest must *still* equal the committed fixture — recovery is
    only correct when it is invisible in ``shardsim.*`` space.
    """
    shards = resolve_shards(shards)
    scoped = {SHARDS_ENV: str(shards)}
    if chaos:
        scoped[SHARD_MODE_ENV] = "process"
        scoped[CKPT_EVERY_ENV] = str(GOLDEN_CHAOS_CKPT_EVERY)
    specs = golden_shard_specs()
    if chaos:
        plan = golden_chaos_plan()
        specs = [dataclasses.replace(spec, faults=plan) for spec in specs]
    previous = {key: os.environ.get(key) for key in scoped}
    os.environ.update(scoped)
    try:
        results: List[RunResult] = run_specs(
            specs,
            workers=workers,
            metrics_name="golden_shards_metrics",
        )
    finally:
        for key, value in previous.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return metrics_doc(results, workers=resolve_workers(workers))
