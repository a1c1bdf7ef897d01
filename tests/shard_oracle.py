"""A scalar reference for the sharded city engine.

The engine derives its walkers and steps each shard epoch as numpy array
expressions.  This module does the same work one walker, one scan and
one sensor at a time in plain Python floats, the way the engine's
original stdlib backend did, and without any candidate-sensor pruning:
every scan is checked against every sensor in the city.  The engine
must reproduce it bit for bit — the same static columns, the same
records applied in the same order, the same digest — at any shard
count.

:func:`run_scalar` runs a scenario inline through the real engine with
the scalar derivation and the scalar :class:`ScalarShardRuntime` swapped
in.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np

from repro.sim.shards import engine, handoff
from repro.sim.shards import shard as shard_module
from repro.sim.shards.attacker import BUCKET_FRESHNESS, BUCKET_POPULARITY
from repro.sim.shards.scenario import (
    _C_AXIS,
    _C_CROSS,
    _C_DIR,
    _C_PERIOD,
    _C_PHASE,
    _C_PNL_BASE,
    _C_PNL_N,
    _C_SPAWN,
    _C_SPEED,
    P_WALKER,
    ShardScenario,
)
from repro.sim.shards.shard import ShardRuntime
from repro.sim.shards.soa import PERIOD, START, T0, T_EXIT, VX, VY, X0, Y0, WalkerBatch
from repro.sim.shards.srng import stream_base, u01


def corridor_endpoints(horizontal: bool, forward: bool, cross: float, size: float):
    """``(x0, y0, ux, uy)``: entry point and unit direction of a walker
    entering on one edge of the ``[0, size)`` square at offset
    ``cross`` and walking straight across."""
    if horizontal:
        return (0.0, cross, 1.0, 0.0) if forward else (size, cross, -1.0, 0.0)
    return (cross, 0.0, 0.0, 1.0) if forward else (cross, size, 0.0, -1.0)


def position_of(batch: WalkerBatch, i: int, t: float):
    """Walker ``i``'s position at ``t``: waiting at its entry point
    before entry, parked at its exit point after exit."""
    static = batch.static
    t_enter = float(static[T0, i])
    t_exit = float(static[T_EXIT, i])
    if t <= t_enter:
        dt = 0.0
    elif t >= t_exit:
        dt = t_exit - t_enter
    else:
        dt = t - t_enter
    return (
        float(static[X0, i]) + float(static[VX, i]) * dt,
        float(static[Y0, i]) + float(static[VY, i]) * dt,
    )


def derive_walkers_scalar(scenario: ShardScenario) -> WalkerBatch:
    """The walker population, one walker and one draw at a time."""
    base = stream_base(scenario.seed, P_WALKER)
    size = scenario.size_m
    speed_span = scenario.speed_max_mps - scenario.speed_min_mps
    period_span = scenario.scan_period_max_s - scenario.scan_period_min_s
    rows = []
    pnl = []
    for i in range(scenario.stations):
        t_enter = u01(base, i, _C_SPAWN) * scenario.spawn_fraction
        t_enter = t_enter * scenario.duration
        horizontal = u01(base, i, _C_AXIS) < 0.5
        forward = u01(base, i, _C_DIR) < 0.5
        cross = u01(base, i, _C_CROSS) * size
        speed = scenario.speed_min_mps + u01(base, i, _C_SPEED) * speed_span
        period = scenario.scan_period_min_s + u01(base, i, _C_PERIOD) * period_span
        phase = u01(base, i, _C_PHASE) * period
        ex, ey, ux, uy = corridor_endpoints(horizontal, forward, cross, size)
        row = [0.0] * 8
        row[START] = t_enter + phase
        row[PERIOD] = period
        row[T_EXIT] = t_enter + size / speed
        row[T0] = t_enter
        row[X0], row[Y0] = ex, ey
        row[VX], row[VY] = ux * speed, uy * speed
        rows.append(row)
        entries = set()
        pnl_n = 2 + math.floor(u01(base, i, _C_PNL_N) * (scenario.pnl_max - 1))
        for j in range(pnl_n):
            pick = u01(base, i, _C_PNL_BASE + 2 * j)
            if u01(base, i, _C_PNL_BASE + 1 + 2 * j) < scenario.open_share:
                entries.add(int(pick * pick * scenario.ssid_universe))
        pnl.append(frozenset(entries))
    static = np.array(rows, dtype=np.float64).T.copy()
    return WalkerBatch(static, tuple(pnl))


class ScalarShardRuntime(ShardRuntime):
    """A shard that owns, scans, migrates and routes one walker at a
    time, checking every scan against every sensor."""

    def _owner(self, i: int, t: float) -> int:
        x, y = position_of(self.walkers, i, t)
        return self.part.shard_of_point(x, y, self.shards)

    def _initial_owned(self):
        t0 = self.barriers[0]
        return np.array(
            [i for i in range(self.walkers.n) if self._owner(i, t0) == self.shard_id],
            dtype=np.int64,
        )

    def _step_epoch(self, t_e: float, t_next: float, out) -> None:
        batch = self.walkers
        static = batch.static
        hi_cap = min(t_next, self.scenario.duration)
        for i in self.owned.tolist():
            if batch.connected[i]:
                continue
            start = float(static[START, i])
            period = float(static[PERIOD, i])
            hi = min(hi_cap, float(static[T_EXIT, i]))
            k_lo = max(0.0, math.ceil((t_e - start) / period))
            k_hi = max(k_lo, math.ceil((hi - start) / period))
            for k in range(int(k_lo), int(k_hi)):
                t_s = start + k * period
                x, y = position_of(batch, i, t_s)
                batch.scans[i] += 1
                self.metrics.inc("shardsim.scans")
                for sid, sx, sy in self.sensors:
                    dx = sx - x
                    dy = sy - y
                    if dx * dx + dy * dy <= self._reach2:
                        out.setdefault(self.sensor_owner[sid], []).append(
                            handoff.probe(t_s, self.part.district_of(x, y), i, sid)
                        )
                        batch.probes[i] += 1
                        self.metrics.inc("shardsim.probes")

    def _emit_migrations(self, t_next: float, out) -> None:
        batch = self.walkers
        staying = []
        for i in self.owned.tolist():
            dest = self._owner(i, t_next)
            if dest == self.shard_id:
                staying.append(i)
                continue
            x, y = position_of(batch, i, t_next)
            out.setdefault(dest, []).append(
                handoff.migrate(
                    t_next, self.part.district_of(x, y), i, batch.dynamic_row(i)
                )
            )
            self.metrics.inc("shardops.migrations_out")
        if len(staying) < len(self.owned):
            self._set_owned(np.array(staying, dtype=np.int64))

    def _phase_b(self, epoch, feedbacks_in, probes_in, out) -> None:
        t_deliver = self.barriers[epoch + 1]
        for rec in handoff.sorted_records(feedbacks_in):
            _, t, district, wid, sid, ssid = rec
            bucket = self.hunters[sid].feedback(wid, ssid)
            self._log_applied(rec)
            self.metrics.inc("shardsim.feedbacks")
            if bucket == BUCKET_POPULARITY:
                self.metrics.inc("shardsim.hits_popularity")
            elif bucket == BUCKET_FRESHNESS:
                self.metrics.inc("shardsim.hits_freshness")
        for rec in handoff.sorted_records(probes_in):
            _, t, district, wid, sid = rec
            burst = self.hunters[sid].burst_for(wid)
            self._log_applied(rec)
            if not burst:
                self.metrics.inc("shardsim.bursts_exhausted")
                continue
            self.metrics.inc("shardsim.offers")
            out.setdefault(self._owner(wid, t_deliver), []).append(
                handoff.offer(t, district, wid, sid, burst)
            )


def run_scalar(scenario: ShardScenario, shards: int, **kwargs):
    """``run_sharded(scenario, shards, mode="inline", **kwargs)`` on the
    scalar derivation and :class:`ScalarShardRuntime`."""
    with mock.patch.object(
        shard_module, "derive_walkers", derive_walkers_scalar
    ), mock.patch.object(engine, "ShardRuntime", ScalarShardRuntime):
        return engine.run_sharded(scenario, shards=shards, mode="inline", **kwargs)
