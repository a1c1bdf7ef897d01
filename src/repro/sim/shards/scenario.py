"""The sharded-city workload description and its pure derivations.

A :class:`ShardScenario` is a frozen, picklable value object — the
third :class:`~repro.experiments.parallel.RunSpec` route next to venue
profiles and explicit scenarios.  Everything about the run (walker
paths, scan cadences, PNLs, sensor placement) derives from it through
the stateless RNG of :mod:`repro.sim.shards.srng`, so any shard — and
any shard *count* — reconstructs the identical city.

Walkers are corridor crossers: each enters on one edge of the square
city at a random offset and walks straight across at a fixed speed
(the paper's subway-passage pattern scaled city-wide), actively
scanning on a personal period/phase.  Sensors are City-Hunter
deployments (:class:`~repro.sim.shards.attacker.LiteHunter`) pinned at
random positions.  The shard count is *not* a scenario field: it is an
execution parameter (``--shards`` / ``REPRO_SHARDS``), which is exactly
why the golden digest must not move when it changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.geo.grid import DistrictPartition
from repro.sim.shards.soa import (
    PERIOD,
    START,
    T0,
    T_EXIT,
    VX,
    VY,
    X0,
    Y0,
    WalkerBatch,
)
from repro.sim.shards.srng import stream_base, u01, u01_vec

P_WALKER = "walker"
P_SENSOR = "sensor"

# Per-walker draw counters (the stateless RNG contract: changing any
# assignment below changes every golden digest).
_C_SPAWN = 0
_C_AXIS = 1
_C_DIR = 2
_C_CROSS = 3
_C_SPEED = 4
_C_PERIOD = 5
_C_PHASE = 6
_C_PNL_N = 7
_C_PNL_BASE = 8  # entry j uses counters (8 + 2j, 9 + 2j)


@dataclass(frozen=True)
class ShardScenario:
    """One sharded city run, described entirely by plain values."""

    stations: int
    sensors: int
    duration: float
    seed: int = 0
    size_m: float = 960.0
    district_m: float = 120.0
    """District edge: the cell of the
    :class:`~repro.geo.grid.DistrictPartition` whose columns the shards
    take as x-stripes."""

    epoch_s: float = 5.0
    reach_m: float = 60.0
    ssid_universe: int = 160
    pb_size: int = 64
    fb_size: int = 16
    burst_size: int = 12
    spawn_fraction: float = 0.7
    speed_min_mps: float = 0.9
    speed_max_mps: float = 1.8
    scan_period_min_s: float = 15.0
    scan_period_max_s: float = 60.0
    pnl_max: int = 6
    open_share: float = 0.6

    def __post_init__(self) -> None:
        if self.stations < 1:
            raise ValueError("stations must be >= 1, got %r" % self.stations)
        if self.sensors < 1:
            raise ValueError("sensors must be >= 1, got %r" % self.sensors)
        if self.duration <= 0:
            raise ValueError("duration must be positive, got %r" % self.duration)
        if self.epoch_s <= 0:
            raise ValueError("epoch_s must be positive, got %r" % self.epoch_s)
        if self.size_m < self.district_m:
            raise ValueError("city smaller than one district")
        if self.reach_m <= 0:
            raise ValueError("reach_m must be positive, got %r" % self.reach_m)
        if self.ssid_universe < 1:
            raise ValueError("ssid_universe must be >= 1")
        if self.pb_size < 1:
            raise ValueError("pb_size must be >= 1, got %r" % self.pb_size)
        if self.fb_size < 0:
            raise ValueError("fb_size must be >= 0, got %r" % self.fb_size)
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1, got %r" % self.burst_size)
        if self.pnl_max < 2:
            raise ValueError("pnl_max must be >= 2, got %r" % self.pnl_max)
        if not 0.0 < self.open_share <= 1.0:
            raise ValueError("open_share must be in (0, 1], got %r" % self.open_share)
        if not 0.0 < self.speed_min_mps <= self.speed_max_mps:
            raise ValueError("bad walker speed bounds")
        if not 0.0 < self.scan_period_min_s <= self.scan_period_max_s:
            raise ValueError("bad scan period bounds")
        if not 0.0 <= self.spawn_fraction <= 1.0:
            raise ValueError("spawn_fraction must be in [0, 1]")

    def partition(self) -> DistrictPartition:
        """The fixed district grid this scenario is cut along."""
        return DistrictPartition(self.size_m, self.district_m)


def derive_walkers(scenario: ShardScenario) -> WalkerBatch:
    """The full walker population as a :class:`WalkerBatch`.

    Every column is an elementwise expression over the stateless
    draws, so each walker's values are independent of the population
    around it (the tests pin them against a one-walker-at-a-time
    derivation).
    """
    base = stream_base(scenario.seed, P_WALKER)
    size = scenario.size_m
    speed_span = scenario.speed_max_mps - scenario.speed_min_mps
    period_span = scenario.scan_period_max_s - scenario.scan_period_min_s
    ids = np.arange(scenario.stations, dtype=np.uint64)
    draw = [u01_vec(base, ids, c) for c in range(_C_PNL_N + 1)]
    t0 = draw[_C_SPAWN] * scenario.spawn_fraction * scenario.duration
    horizontal = draw[_C_AXIS] < 0.5
    forward = draw[_C_DIR] < 0.5
    cross = draw[_C_CROSS] * size
    speed = scenario.speed_min_mps + draw[_C_SPEED] * speed_span
    period = scenario.scan_period_min_s + draw[_C_PERIOD] * period_span
    phase = draw[_C_PHASE] * period
    x0 = np.where(horizontal, np.where(forward, 0.0, size), cross)
    y0 = np.where(horizontal, cross, np.where(forward, 0.0, size))
    vx = np.where(horizontal, np.where(forward, speed, -speed), 0.0)
    vy = np.where(horizontal, 0.0, np.where(forward, speed, -speed))
    static = np.empty((8, scenario.stations))
    static[START] = t0 + phase
    static[PERIOD] = period
    static[T_EXIT] = t0 + size / speed
    static[T0] = t0
    static[X0] = x0
    static[Y0] = y0
    static[VX] = vx
    static[VY] = vy
    pnl_n = (2.0 + np.floor(draw[_C_PNL_N] * (scenario.pnl_max - 1))).astype(
        np.int64
    )
    # PNL entry j of every walker at once, -1 where it is closed or past
    # the walker's pnl_n (draws are stateless, so drawing an unused
    # entry changes nothing).
    columns = []
    for j in range(scenario.pnl_max):
        pick = u01_vec(base, ids, _C_PNL_BASE + 2 * j)
        is_open = u01_vec(base, ids, _C_PNL_BASE + 1 + 2 * j) < scenario.open_share
        # Quadratic skew towards low SSIDs, mirroring the popularity
        # ranking the sensors seed their PB with.
        ssid = (pick * pick * scenario.ssid_universe).astype(np.int64)
        columns.append(np.where(is_open & (j < pnl_n), ssid, -1).tolist())
    pnl_open = tuple(frozenset(row) - {-1} for row in zip(*columns))
    return WalkerBatch(static, pnl_open)


def derive_sensors(scenario: ShardScenario) -> List[Tuple[int, float, float]]:
    """Every sensor as ``(sensor_id, x, y)`` — identical in all shards."""
    base = stream_base(scenario.seed, P_SENSOR)
    size = scenario.size_m
    return [
        (s, u01(base, s, 0) * size, u01(base, s, 1) * size)
        for s in range(scenario.sensors)
    ]
