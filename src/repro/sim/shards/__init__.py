"""District-sharded city simulation with deterministic handoff.

One :class:`~repro.sim.simulation.Simulation` owns one medium and tops
out around 400 stations; this package is the scale path.  The city is
partitioned into fixed *districts* (a grid over the square city, cut
along the same seam as the spatial hash grid of
:class:`~repro.geo.grid.SpatialGrid`), districts are grouped into
*shards*, and each shard steps its owned walkers in a struct-of-arrays
batch — thousands of phones per phase call.

Cross-shard effects (boundary-crossing walkers, frames delivered across
a district edge) are exchanged only at fixed epoch barriers, as records
sorted by the shard-count-invariant key ``(sim_time, district_id,
walker_id, sensor_id)``.  Every derived quantity is a pure function of
``(scenario, walker_id/sensor_id)`` via a stateless counter RNG, so the
shard count changes *where* a station is computed, never *what* — runs
are bit-identical at any ``--shards`` value, a property the golden
harness pins (see :mod:`repro.experiments.golden`).
"""

from repro.sim.shards.checkpoint import (
    CKPT_EVERY_ENV,
    CheckpointError,
    resolve_ckpt_every,
)
from repro.sim.shards.engine import (
    SHARD_MODE_ENV,
    SHARDS_ENV,
    ShardCrash,
    ShardedCitySim,
    ShardRunResult,
    resolve_shard_mode,
    resolve_shards,
    run_sharded,
)
from repro.sim.shards.handoff import CorruptHandoffError
from repro.sim.shards.scenario import ShardScenario

__all__ = [
    "CKPT_EVERY_ENV",
    "CheckpointError",
    "CorruptHandoffError",
    "SHARD_MODE_ENV",
    "SHARDS_ENV",
    "ShardCrash",
    "ShardScenario",
    "ShardedCitySim",
    "ShardRunResult",
    "resolve_ckpt_every",
    "resolve_shard_mode",
    "resolve_shards",
    "run_sharded",
]
