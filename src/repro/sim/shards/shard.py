"""One district shard: owned walkers, owned sensors, two-phase epochs.

A :class:`ShardRuntime` owns a contiguous stripe of district columns
(:meth:`~repro.geo.grid.DistrictPartition.stripe_bounds`).  Per epoch
``[t_e, t_{e+1})`` it runs two barrier-aligned phases, each a single
call that works on the struct-of-arrays batch:

* **Phase A** (walker side, at ``t_e``): apply handed-in migrations,
  then handed-in offer records, both in canonical
  :func:`~repro.sim.shards.handoff.sort_key` order; emit this epoch's
  scans as probe records; compute end-of-epoch migrations.  The shard
  keeps its owned walker ids as an array together with their static
  columns, re-gathered only when ownership changes, and computes every
  scan of the epoch at once: which walkers scan and how often (a walker
  whose period is shorter than the epoch scans several times), each
  scan's time and position, its exact distance to each of the stripe's
  candidate sensors, and the district of every scan that reaches one.
  Extra shards make no single-process run cheaper; on one core they
  only add handoff work, and they pay off in process mode with cores
  to spare.
* **Phase B** (sensor side, at ``t_{e+1}``): feed sorted feedback
  records to the owned :class:`~repro.sim.shards.attacker.LiteHunter`
  cores, then answer sorted probe records with offer records addressed
  to each walker's *next* owner, found with one vector owner lookup.

Determinism: all record processing is sorted by shard-count-invariant
keys, and all arithmetic is elementwise over values derived from the
stateless RNG.  Candidate sensors are pruned once, at construction: a
walker owned at ``t_e`` lies in the stripe and moves at most
``speed_max * epoch_s`` before ``t_{e+1}``, so the stripe inflated by
:func:`reach_with_motion` holds every sensor it can reach this epoch;
the exact distance check at each scan's own position then decides.
Pruning changes work, never results.

Workload metrics live under ``shardsim.*`` and are **integer-valued
only** (float sums across different shard partitions are not
bit-associative; integer sums are exact); operational metrics —
anything legitimately shard-count-dependent, like migration counts —
live under ``shardops.*``, which golden canonicalisation strips.
"""

from __future__ import annotations

import time as _time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.mobility.batch import positions_vec
from repro.obs.epochs import maybe_epoch_tracer
from repro.obs.registry import MetricsRegistry
from repro.sim.clock import epoch_schedule
from repro.sim.shards import handoff
from repro.sim.shards.checkpoint import (
    CKPT_SCHEMA,
    CheckpointError,
    read_blob,
    shard_ckpt_name,
    write_blob,
)
from repro.sim.shards.attacker import (
    BUCKET_FRESHNESS,
    BUCKET_POPULARITY,
    LiteHunter,
)
from repro.sim.shards.scenario import ShardScenario, derive_sensors, derive_walkers
from repro.sim.shards.soa import PERIOD, START, T0, T_EXIT, VX, VY, X0, Y0

#: Handoff-log cap — enough for every test workload, bounded for big runs.
HANDOFF_LOG_CAP = 50_000

Outbox = Dict[int, List[tuple]]


def reach_with_motion(reach: float, v_max: float, dt: float) -> float:
    """Radio reach inflated by the worst-case motion over ``dt`` seconds.

    A walker moves at most ``v_max * dt`` metres in ``dt`` seconds, so
    the sensors within this radius of where it was include every sensor
    within ``reach`` of where it is: the invariant behind the
    candidate-sensor stripes.
    """
    if dt <= 0:
        return reach
    return reach + v_max * dt


def _cells(vs, cell_m: float, n: int):
    """Grid index ``int(v // cell_m)`` of every coordinate in ``vs``,
    clamped to ``[0, n)`` — the vector form of
    :meth:`~repro.geo.grid.DistrictPartition.column_of`."""
    return np.minimum(np.maximum((vs // cell_m).astype(np.int64), 0), n - 1)


def _positions(t, cols):
    """Positions at ``t`` of the walkers whose static columns (rows of
    :attr:`~repro.sim.shards.soa.WalkerBatch.static`) are ``cols``."""
    return positions_vec(
        t, cols[T0], cols[T_EXIT], cols[X0], cols[Y0], cols[VX], cols[VY]
    )


class ShardRuntime:
    """The per-shard simulation driver (one per shard, any process)."""

    def __init__(
        self,
        scenario: ShardScenario,
        shard_id: int,
        shards: int,
        log_handoffs: bool = False,
    ):
        if not 0 <= shard_id < shards:
            raise ValueError(
                "shard_id %r out of range for %d shards" % (shard_id, shards)
            )
        self.scenario = scenario
        self.shard_id = shard_id
        self.shards = shards
        self.part = scenario.partition()
        self.barriers = epoch_schedule(scenario.duration, scenario.epoch_s)
        self.epochs = len(self.barriers) - 1
        self.metrics = MetricsRegistry()
        self.walkers = derive_walkers(scenario)
        self.sensors = derive_sensors(scenario)
        self.sensor_owner = {
            sid: self.part.shard_of_point(x, y, shards) for sid, x, y in self.sensors
        }
        self.hunters: Dict[int, LiteHunter] = {
            sid: LiteHunter(
                scenario.ssid_universe,
                scenario.pb_size,
                scenario.fb_size,
                scenario.burst_size,
            )
            for sid, _, _ in self.sensors
            if self.sensor_owner[sid] == shard_id
        }
        # Candidate sensors: everything a walker owned by this stripe
        # could reach during one epoch, walker motion included.
        margin = reach_with_motion(
            scenario.reach_m, scenario.speed_max_mps, scenario.epoch_s
        )
        x_lo, x_hi = self.part.stripe_bounds(shard_id, shards)
        cand = [
            (sid, x, y, self.sensor_owner[sid])
            for sid, x, y in self.sensors
            if x_lo - margin <= x <= x_hi + margin
        ]
        self._cand_sid = np.array([c[0] for c in cand], dtype=np.int64)
        self._cand_x = np.array([c[1] for c in cand], dtype=np.float64)
        self._cand_y = np.array([c[2] for c in cand], dtype=np.float64)
        self._cand_owner = np.array([c[3] for c in cand], dtype=np.int64)
        self._reach2 = scenario.reach_m * scenario.reach_m
        self._set_owned(self._initial_owned())
        self.hits = 0
        self.epochs_done = 0
        self._log: Optional[List[tuple]] = [] if log_handoffs else None
        # Per-epoch barrier tracing (REPRO_EPOCH_TRACE): observe-only,
        # so digests are bit-identical with it on or off.
        self.tracer = maybe_epoch_tracer(shard_id, shards, self.epochs)
        self._phase_end_pc: Optional[float] = None
        self.metrics.gauge_set(
            "shardops.owned_initial", len(self.owned), shard=shard_id
        )
        self.metrics.gauge_set(
            "shardops.sensors_owned", len(self.hunters), shard=shard_id
        )
        self.metrics.gauge_set(
            "shardops.candidate_sensors", len(cand), shard=shard_id
        )

    # -- ownership --------------------------------------------------------

    def _initial_owned(self):
        owner = self._owners_at(self.barriers[0], self.walkers.static)
        return np.flatnonzero(owner == self.shard_id)

    def _set_owned(self, owned) -> None:
        """Adopt ``owned`` (ascending int64 walker ids) and gather their
        static columns, which every epoch's step and migration check
        read.  Called whenever ownership changes."""
        self.owned = owned
        self._cols = np.take(self.walkers.static, owned, axis=1)

    def _owner_shards_vec(self, xs):
        """Vector form of DistrictPartition.shard_of_point's x logic."""
        part = self.part
        ix = _cells(xs, part.district_m, part.nx)
        return np.minimum(self.shards - 1, ix * self.shards // part.nx)

    def _owners_at(self, t: float, cols):
        """Owning shard at time ``t`` of the walkers whose static columns
        are ``cols`` — a pure function of static state, so every shard
        can route to it."""
        return self._owner_shards_vec(_positions(t, cols)[0])

    def _districts(self, xs, ys):
        """Vector form of :meth:`DistrictPartition.district_of`."""
        part = self.part
        return (
            _cells(ys, part.district_m, part.ny) * part.nx
            + _cells(xs, part.district_m, part.nx)
        )

    # -- logging ----------------------------------------------------------

    def _log_applied(self, record: tuple) -> None:
        if self._log is not None and len(self._log) < HANDOFF_LOG_CAP:
            self._log.append(handoff.applied_key(record))

    def _trace_phase(
        self, epoch: int, phase: str, pc0: float, records_in: dict, out: Outbox
    ) -> None:
        """Record the phase that started at ``pc0`` as one epoch-trace
        span, with the wait since the previous phase ended."""
        pc1 = _time.perf_counter()
        self.tracer.record(
            epoch,
            phase,
            wall_s=pc1 - pc0,
            barrier_s=(
                pc0 - self._phase_end_pc if self._phase_end_pc is not None else 0.0
            ),
            records_in=records_in,
            outboxes=out,
        )
        self._phase_end_pc = pc1

    # -- phase A ----------------------------------------------------------

    def run_phase_a(
        self,
        epoch: int,
        migrations_in: List[tuple],
        offers_in: List[tuple],
        last: bool = False,
    ) -> Outbox:
        """Run phase A of ``epoch``; returns the outboxes (dest shard ->
        records) for the X1 exchange."""
        pc0 = _time.perf_counter()
        out: Outbox = {}
        self._phase_a(epoch, migrations_in, offers_in, out, last)
        if self.tracer is not None:
            self._trace_phase(
                epoch, "a", pc0, {"m": len(migrations_in), "o": len(offers_in)}, out
            )
        return out

    def _phase_a(
        self,
        epoch: int,
        migrations_in: List[tuple],
        offers_in: List[tuple],
        out: Outbox,
        last: bool,
    ) -> None:
        t_e = self.barriers[epoch]
        t_next = self.barriers[epoch + 1]
        if migrations_in:
            arrived = []
            for rec in handoff.sorted_records(migrations_in):
                self.walkers.apply_row(rec[3], rec[5])
                arrived.append(rec[3])
                self._log_applied(rec)
            # A walker has one owner, so arrivals are never owned here.
            self._set_owned(np.sort(np.concatenate((self.owned, arrived))))
            self.metrics.inc("shardops.migrations_in", len(arrived))
        for rec in handoff.sorted_records(offers_in):
            self._apply_offer(rec, out)
        self._step_epoch(t_e, t_next, out)
        if not last:
            self._emit_migrations(t_next, out)

    def _apply_offer(self, rec: tuple, out: Outbox) -> None:
        _, t, district, wid, sid, burst = rec
        self._log_applied(rec)
        self.walkers.offers[wid] += 1
        if self.walkers.connected[wid]:
            self.metrics.inc("shardsim.offers_stale")
            return
        chosen = None
        pnl = self.walkers.pnl_open[wid]
        for ssid in burst:
            if ssid in pnl:
                chosen = ssid
                break
        if chosen is None:
            return
        # Same first-matching-open-entry policy as
        # repro.devices.phone.pick_join_target, over the sorted record
        # order instead of frame-arrival order.
        self.walkers.connect(wid, t, sid, chosen)
        self.hits += 1
        self.metrics.inc("shardsim.hits")
        self.metrics.inc("shardsim.hits_by_district", district=district)
        out.setdefault(self.sensor_owner[sid], []).append(
            handoff.feedback(t, district, wid, sid, chosen)
        )

    def _step_epoch(self, t_e: float, t_next: float, out: Outbox) -> None:
        """Emit every scan of ``[t_e, t_next)`` as probe records, all of
        them at once over the owned walkers' cached columns."""
        own = self.owned
        if not len(own):
            return
        batch = self.walkers
        cols = self._cols
        start = cols[START]
        period = cols[PERIOD]
        hi = np.minimum(min(t_next, self.scenario.duration), cols[T_EXIT])
        k_lo = np.maximum(0.0, np.ceil((t_e - start) / period))
        k_hi = np.maximum(k_lo, np.ceil((hi - start) / period))
        rows = np.flatnonzero((k_hi > k_lo) & ~batch.connected[own])
        if not len(rows):
            return
        # One entry per scan, in (walker, k) order: a walker whose period
        # is shorter than the epoch scans at k_lo, k_lo + 1, ...
        counts = (k_hi[rows] - k_lo[rows]).astype(np.int64)
        scan_row = rows
        k = k_lo[rows]
        if int(counts.sum()) > len(rows):
            scan_row = np.repeat(rows, counts)
            first = np.repeat(np.cumsum(counts) - counts, counts)
            k = k_lo[scan_row] + (np.arange(len(scan_row)) - first)
        sc = np.take(cols, scan_row, axis=1)
        t_s = sc[START] + k * sc[PERIOD]
        xs, ys = _positions(t_s, sc)
        dx = self._cand_x - xs[:, None]
        dy = self._cand_y - ys[:, None]
        scan, cand = np.nonzero(dx * dx + dy * dy <= self._reach2)
        batch.scans[own[rows]] += counts
        self.metrics.inc("shardsim.scans", len(scan_row))
        if not len(scan):
            return
        walkers = own[scan_row[scan]]
        np.add.at(batch.probes, walkers, 1)
        self.metrics.inc("shardsim.probes", len(scan))
        for t, district, wid, sid, dest in zip(
            t_s[scan].tolist(),
            self._districts(xs[scan], ys[scan]).tolist(),
            walkers.tolist(),
            self._cand_sid[cand].tolist(),
            self._cand_owner[cand].tolist(),
        ):
            out.setdefault(dest, []).append(handoff.probe(t, district, wid, sid))

    def _emit_migrations(self, t_next: float, out: Outbox) -> None:
        own = self.owned
        if not len(own):
            return
        xs, ys = _positions(t_next, self._cols)
        owner = self._owner_shards_vec(xs)
        staying = owner == self.shard_id
        moving = np.flatnonzero(~staying)
        if not len(moving):
            return
        batch = self.walkers
        for wid, dest, district in zip(
            own[moving].tolist(),
            owner[moving].tolist(),
            self._districts(xs[moving], ys[moving]).tolist(),
        ):
            out.setdefault(dest, []).append(
                handoff.migrate(t_next, district, wid, batch.dynamic_row(wid))
            )
        self._set_owned(own[staying])
        self.metrics.inc("shardops.migrations_out", len(moving))

    # -- phase B ----------------------------------------------------------

    def run_phase_b(
        self, epoch: int, feedbacks_in: List[tuple], probes_in: List[tuple]
    ) -> Outbox:
        """Run phase B of ``epoch``; returns offer outboxes for X2."""
        pc0 = _time.perf_counter()
        out: Outbox = {}
        self._phase_b(epoch, feedbacks_in, probes_in, out)
        if self.tracer is not None:
            self._trace_phase(
                epoch, "b", pc0, {"f": len(feedbacks_in), "p": len(probes_in)}, out
            )
        self.epochs_done = epoch + 1
        return out

    def _phase_b(
        self,
        epoch: int,
        feedbacks_in: List[tuple],
        probes_in: List[tuple],
        out: Outbox,
    ) -> None:
        popularity = freshness = 0
        for rec in handoff.sorted_records(feedbacks_in):
            _, t, district, wid, sid, ssid = rec
            bucket = self.hunters[sid].feedback(wid, ssid)
            self._log_applied(rec)
            if bucket == BUCKET_POPULARITY:
                popularity += 1
            elif bucket == BUCKET_FRESHNESS:
                freshness += 1
        offers = []
        for rec in handoff.sorted_records(probes_in):
            _, t, district, wid, sid = rec
            burst = self.hunters[sid].burst_for(wid)
            self._log_applied(rec)
            if burst:
                offers.append(handoff.offer(t, district, wid, sid, burst))
        if offers:
            wids = np.array([rec[3] for rec in offers], dtype=np.int64)
            dests = self._owners_at(
                self.barriers[epoch + 1], self.walkers.static[:, wids]
            )
            for rec, dest in zip(offers, dests.tolist()):
                out.setdefault(dest, []).append(rec)
        # Counted once per phase, and only when non-zero, so a counter
        # the run never touches stays absent.
        for name, value in (
            ("shardsim.feedbacks", len(feedbacks_in)),
            ("shardsim.hits_popularity", popularity),
            ("shardsim.hits_freshness", freshness),
            ("shardsim.bursts_exhausted", len(probes_in) - len(offers)),
            ("shardsim.offers", len(offers)),
        ):
            if value:
                self.metrics.inc(name, value)

    # -- finalisation -----------------------------------------------------

    def finalize(self, collect_states: bool = True) -> dict:
        """Close out the run: totals, gauges, and the picklable result."""
        if self.tracer is not None:
            self.tracer.close()
        batch = self.walkers
        own = self.owned
        probed = int(np.count_nonzero(batch.probes[own]))
        connected = int(np.count_nonzero(batch.connected[own]))
        self.metrics.inc("shardsim.walkers_probed", probed)
        self.metrics.inc("shardsim.walkers_connected", connected)
        self.metrics.gauge_set("shardsim.stations", self.scenario.stations)
        self.metrics.gauge_set("shardsim.sensors", self.scenario.sensors)
        self.metrics.gauge_set("shardsim.districts", self.part.districts)
        self.metrics.gauge_set("shardsim.epochs", self.epochs)
        self.metrics.gauge_set(
            "shardops.owned_final", len(self.owned), shard=self.shard_id
        )
        result = {
            "shard": self.shard_id,
            "metrics": self.metrics.to_dict(),
            "summary": {"probed": probed, "connected": connected},
            "hits": self.hits,
            "walker_rows": None,
            "hunter_states": None,
            "handoff_log": list(self._log) if self._log is not None else None,
        }
        if collect_states:
            result["walker_rows"] = {i: batch.dynamic_row(i) for i in own.tolist()}
            result["hunter_states"] = {
                sid: hunter.state() for sid, hunter in sorted(self.hunters.items())
            }
        return result

    # -- checkpointing (PR 8) ---------------------------------------------

    def checkpoint_state(self) -> dict:
        """Everything mutable, as plain picklable values.

        The static majority of a shard — walker trajectories, sensor
        layout, the partition — is a pure function of the scenario and
        is *re-derived* on restore, so a checkpoint carries only the
        dynamic rows of owned walkers, hunter buffers, counters and the
        metrics snapshot.  Non-owned rows need no saving: a row only
        matters once its walker migrates in, and the migration record
        itself carries the authoritative row.
        """
        batch = self.walkers
        return {
            "schema": CKPT_SCHEMA,
            "shard": self.shard_id,
            "shards": self.shards,
            "seed": self.scenario.seed,
            "epoch": self.epochs_done,
            "hits": self.hits,
            "owned": self.owned.tolist(),
            "rows": {i: batch.dynamic_row(i) for i in self.owned.tolist()},
            "hunters": {
                sid: hunter.state()
                for sid, hunter in sorted(self.hunters.items())
            },
            "metrics": self.metrics.to_dict(),
            "log": list(self._log) if self._log is not None else None,
        }

    def restore_state(self, payload: dict) -> None:
        """Roll this (freshly constructed) runtime back to a barrier."""
        if not isinstance(payload, dict) or payload.get("schema") != CKPT_SCHEMA:
            raise CheckpointError("bad shard checkpoint schema")
        for key, want in (
            ("shard", self.shard_id),
            ("shards", self.shards),
            ("seed", self.scenario.seed),
        ):
            if payload.get(key) != want:
                raise CheckpointError(
                    "checkpoint %s=%r does not match runtime %s=%r"
                    % (key, payload.get(key), key, want)
                )
        for i, row in payload["rows"].items():
            self.walkers.apply_row(int(i), tuple(row))
        self._set_owned(np.array(sorted(payload["owned"]), dtype=np.int64))
        sc = self.scenario
        restored_hunters = {}
        for sid, state in payload["hunters"].items():
            if sid not in self.hunters:
                raise CheckpointError(
                    "checkpoint hunter %r not owned by shard %d"
                    % (sid, self.shard_id)
                )
            restored_hunters[sid] = LiteHunter.restore(
                sc.ssid_universe, sc.pb_size, sc.fb_size, sc.burst_size, state
            )
        self.hunters.update(restored_hunters)
        self.metrics.load_snapshot(payload["metrics"])
        self.hits = int(payload["hits"])
        self.epochs_done = int(payload["epoch"])
        if self._log is not None and payload.get("log") is not None:
            self._log = list(payload["log"])
        self._phase_end_pc = None

    def restore_file(self, path: Path) -> None:
        """Restore from a :meth:`write_checkpoint` blob (CRC-validated)."""
        self.restore_state(read_blob(Path(path)))

    def write_checkpoint(self, epoch: int, directory: Path) -> dict:
        """Serialise this shard's barrier state; returns the write record.

        Observe-only by construction: all accounting lands under
        ``shardops.*`` (stripped from digests) and the state snapshot is
        taken *before* the accounting, so a checkpointed run and a plain
        run step through identical ``shardsim.*`` space.
        """
        pc0 = _time.perf_counter()
        path = Path(directory) / shard_ckpt_name(self.shard_id, epoch)
        nbytes = write_blob(path, self.checkpoint_state())
        wall_s = _time.perf_counter() - pc0
        self.metrics.inc("shardops.ckpt.writes")
        self.metrics.inc("shardops.ckpt.bytes", nbytes)
        self.metrics.timer_add("shardops.ckpt_wall", wall_s)
        if self.tracer is not None:
            self.tracer.record(
                epoch,
                "c",
                wall_s=wall_s,
                barrier_s=0.0,
                records_in={},
                outboxes={},
                extra={"bytes": nbytes},
            )
        return {
            "shard": self.shard_id,
            "epoch": epoch,
            "path": str(path),
            "bytes": nbytes,
            "wall_s": wall_s,
        }
