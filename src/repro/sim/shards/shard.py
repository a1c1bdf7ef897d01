"""One district shard: owned walkers, owned sensors, two-phase epochs.

A :class:`ShardRuntime` owns a contiguous stripe of district columns
(:meth:`~repro.geo.grid.DistrictPartition.stripe_bounds`).  Per epoch
``[t_e, t_{e+1})`` it runs two barrier-aligned phases, each a single
callback on its own :class:`~repro.sim.simulation.Simulation` scheduler
that works on the struct-of-arrays batch:

* **Phase A** (walker side, at ``t_e``): apply handed-in migrations,
  then handed-in offer records, both in canonical
  :func:`~repro.sim.shards.handoff.sort_key` order; emit this epoch's
  scans as probe records; compute end-of-epoch migrations.  Scans are
  sparse (by default a walker scans every 15-60 s), so only the owned
  walkers that scan in the epoch get positions and candidate sensors:
  the epoch costs O(scanning walkers x candidate sensors), whatever the
  stripe width.  Extra shards therefore make no single-process run
  cheaper; on one core they only add handoff work, and they pay off in
  process mode with cores to spare.
* **Phase B** (sensor side, at ``t_{e+1}``): feed sorted feedback
  records to the owned :class:`~repro.sim.shards.attacker.LiteHunter`
  cores, then answer sorted probe records with offer records addressed
  to each walker's *next* owner.

Determinism: all record processing is sorted by shard-count-invariant
keys; all arithmetic is elementwise over values derived from the
stateless RNG; candidate-sensor pruning (the stripe inflated by
:func:`~repro.dot11.medium.reach_with_motion`, plus a per-epoch
adjacency of each scanning walker at the same inflated radius) is a
strict superset of every sensor a walker can reach this epoch, followed
by exact distance checks — so pruning changes work, never results.

Workload metrics live under ``shardsim.*`` and are **integer-valued
only** (float sums across different shard partitions are not
bit-associative; integer sums are exact); operational metrics —
anything legitimately shard-count-dependent, like migration counts —
live under ``shardops.*``, which golden canonicalisation strips.
"""

from __future__ import annotations

import math
import time as _time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.dot11.medium import reach_with_motion
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
from repro.sim.shards.soa import resolve_backend
from repro.sim.simulation import Simulation
from repro.util.rng import derive_seed

try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: Handoff-log cap — enough for every test workload, bounded for big runs.
HANDOFF_LOG_CAP = 50_000

Outbox = Dict[int, List[tuple]]

_SHARD_PREFIXES = ("shardsim.", "shardops.")


def _namespace_snapshot(snap: dict) -> dict:
    """Move every metric a shard's own :class:`Simulation` emitted
    (``span.sim.*`` health counters, ``sim.*`` gauges, ...) under the
    ``shardops.`` namespace.

    Those values scale with the shard count — each shard runs its own
    scheduler — so leaving them in the workload namespace would break
    shard-count invariance of the merged document.  Workload metrics
    are written as ``shardsim.*`` at the source and pass through.
    """
    for section in ("counters", "gauges", "histograms", "series"):
        values = snap.get(section)
        if not isinstance(values, dict):
            continue
        for key in [k for k in values if not k.startswith(_SHARD_PREFIXES)]:
            values["shardops." + key] = values.pop(key)
    return snap


class ShardRuntime:
    """The per-shard simulation driver (one per shard, any process)."""

    def __init__(
        self,
        scenario: ShardScenario,
        shard_id: int,
        shards: int,
        backend: Optional[str] = None,
        log_handoffs: bool = False,
        epoch_trace: Optional[bool] = None,
    ):
        if not 0 <= shard_id < shards:
            raise ValueError("shard_id %r out of range for %d shards" % (shard_id, shards))
        self.scenario = scenario
        self.shard_id = shard_id
        self.shards = shards
        self.backend = resolve_backend(backend)
        self.part = scenario.partition()
        self.barriers = epoch_schedule(scenario.duration, scenario.epoch_s)
        self.epochs = len(self.barriers) - 1
        self.metrics = MetricsRegistry()
        self.sim = Simulation(
            seed=derive_seed(scenario.seed, "shard:%d" % shard_id),
            trace=False,
            metrics=self.metrics,
        )
        self.walkers = derive_walkers(scenario, self.backend)
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
        self.cand = [
            (sid, x, y)
            for sid, x, y in self.sensors
            if x_lo - margin <= x <= x_hi + margin
        ]
        if self.backend == "numpy":
            self._cand_x = np.array([c[1] for c in self.cand], dtype=np.float64)
            self._cand_y = np.array([c[2] for c in self.cand], dtype=np.float64)
        self._reach2 = scenario.reach_m * scenario.reach_m
        self._adj_r2 = margin * margin
        self.owned: List[int] = self._initial_owned()
        self.hits = 0
        self.epochs_done = 0
        self._log: Optional[List[tuple]] = [] if log_handoffs else None
        # Per-epoch barrier tracing (REPRO_EPOCH_TRACE): observe-only,
        # so digests are bit-identical with it on or off.
        self.tracer = maybe_epoch_tracer(
            shard_id, shards, self.epochs, enabled=epoch_trace
        )
        self._phase_end_pc: Optional[float] = None
        self.metrics.gauge_set("shardops.owned_initial", len(self.owned), shard=shard_id)
        self.metrics.gauge_set(
            "shardops.sensors_owned", len(self.hunters), shard=shard_id
        )
        self.metrics.gauge_set(
            "shardops.candidate_sensors", len(self.cand), shard=shard_id
        )

    # -- ownership --------------------------------------------------------

    def _initial_owned(self) -> List[int]:
        t0 = self.barriers[0]
        if self.backend == "numpy":
            idx = np.arange(self.walkers.n, dtype=np.int64)
            xs, ys = self.walkers.positions_at(t0, idx)
            owner = self._owner_shards_vec(xs)
            return [int(i) for i in idx[owner == self.shard_id]]
        return [
            i
            for i in range(self.walkers.n)
            if self.part.shard_of_point(*self.walkers.position_of(i, t0), self.shards)
            == self.shard_id
        ]

    def _owner_shards_vec(self, xs):
        """Vector form of DistrictPartition.shard_of_point's x logic."""
        ix = np.clip(
            (xs // self.part.district_m).astype(np.int64), 0, self.part.nx - 1
        )
        return np.minimum(self.shards - 1, ix * self.shards // self.part.nx)

    def walker_owner_at(self, t: float, walker: int) -> int:
        """Which shard owns ``walker`` at barrier time ``t`` — a pure
        function of static state, so every shard can route to it."""
        x, y = self.walkers.position_of(walker, t)
        return self.part.shard_of_point(x, y, self.shards)

    # -- logging ----------------------------------------------------------

    def _log_applied(self, record: tuple) -> None:
        if self._log is not None and len(self._log) < HANDOFF_LOG_CAP:
            self._log.append(handoff.applied_key(record))

    # -- phase A ----------------------------------------------------------

    def run_phase_a(
        self,
        epoch: int,
        migrations_in: List[tuple],
        offers_in: List[tuple],
        last: bool = False,
    ) -> Outbox:
        """Drive phase A of ``epoch`` through the scheduler; returns the
        outboxes (dest shard -> records) for the X1 exchange."""
        pc0 = _time.perf_counter()
        t_e = self.barriers[epoch]
        out: Outbox = {}
        self.sim.at_time(t_e, self._phase_a, epoch, migrations_in, offers_in, out, last)
        self.sim.run(t_e)
        if self.tracer is not None:
            pc1 = _time.perf_counter()
            self.tracer.record(
                epoch,
                "a",
                wall_s=pc1 - pc0,
                barrier_s=(
                    pc0 - self._phase_end_pc
                    if self._phase_end_pc is not None
                    else 0.0
                ),
                records_in={"m": len(migrations_in), "o": len(offers_in)},
                outboxes=out,
            )
            self._phase_end_pc = pc1
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
            self.owned.extend(arrived)
            self.owned.sort()
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
        own = self.owned
        if not own:
            return
        batch = self.walkers
        hi_cap = min(t_next, self.scenario.duration)
        if self.backend == "numpy":
            own_arr = np.asarray(own, dtype=np.int64)
            start = batch.t0[own_arr] + batch.phase[own_arr]
            pero = batch.period[own_arr]
            hi = np.minimum(hi_cap, batch.t_exit[own_arr])
            k_lo = np.maximum(0.0, np.ceil((t_e - start) / pero))
            k_hi = np.maximum(k_lo, np.ceil((hi - start) / pero))
            rows = np.nonzero(~batch.connected[own_arr] & (k_hi > k_lo))[0]
            if not len(rows):
                return
            # Scans are sparse (periods of tens of seconds against
            # epochs of a few), so positions and the motion-inflated
            # adjacency are built for the scanning rows alone: the
            # epoch costs O(scanning walkers x candidate sensors).
            wx, wy = batch.positions_at(t_e, own_arr[rows])
            dx = wx[:, None] - self._cand_x[None, :]
            dy = wy[:, None] - self._cand_y[None, :]
            adj = (dx * dx + dy * dy) <= self._adj_r2
            for n, r in enumerate(rows):
                self._scan_walker(
                    int(own_arr[r]),
                    float(start[r]),
                    float(pero[r]),
                    int(k_lo[r]),
                    int(k_hi[r]),
                    [self.cand[c] for c in np.flatnonzero(adj[n])],
                    out,
                )
        else:
            for i in own:
                if batch.connected[i]:
                    continue
                start = batch.t0[i] + batch.phase[i]
                pero = batch.period[i]
                hi = min(hi_cap, batch.t_exit[i])
                k_lo = max(0.0, math.ceil((t_e - start) / pero))
                k_hi = max(k_lo, math.ceil((hi - start) / pero))
                if k_hi > k_lo:
                    self._scan_walker(
                        i, start, pero, int(k_lo), int(k_hi), self.cand, out
                    )

    def _scan_walker(
        self,
        i: int,
        start: float,
        period: float,
        k_lo: int,
        k_hi: int,
        cand: List[Tuple[int, float, float]],
        out: Outbox,
    ) -> None:
        batch = self.walkers
        for k in range(k_lo, k_hi):
            t_s = start + k * period
            x, y = batch.position_of(i, t_s)
            batch.scans[i] += 1
            self.metrics.inc("shardsim.scans")
            emitted = 0
            district = -1
            for sid, sx, sy in cand:
                dx = sx - x
                dy = sy - y
                if dx * dx + dy * dy <= self._reach2:
                    if district < 0:
                        district = self.part.district_of(x, y)
                    out.setdefault(self.sensor_owner[sid], []).append(
                        handoff.probe(t_s, district, i, sid)
                    )
                    emitted += 1
            if emitted:
                batch.probes[i] += emitted
                self.metrics.inc("shardsim.probes", emitted)

    def _emit_migrations(self, t_next: float, out: Outbox) -> None:
        own = self.owned
        if not own:
            return
        batch = self.walkers
        if self.backend == "numpy":
            own_arr = np.asarray(own, dtype=np.int64)
            xs, _ = batch.positions_at(t_next, own_arr)
            owner = self._owner_shards_vec(xs)
            moving = np.nonzero(owner != self.shard_id)[0]
            if not len(moving):
                return
            movers = [(int(own_arr[r]), int(owner[r])) for r in moving]
        else:
            movers = []
            for i in own:
                dest = self.walker_owner_at(t_next, i)
                if dest != self.shard_id:
                    movers.append((i, dest))
            if not movers:
                return
        moving_ids = {i for i, _ in movers}
        for i, dest in movers:
            x, y = batch.position_of(i, t_next)
            out.setdefault(dest, []).append(
                handoff.migrate(
                    t_next, self.part.district_of(x, y), i, batch.dynamic_row(i)
                )
            )
        self.owned = [i for i in own if i not in moving_ids]
        self.metrics.inc("shardops.migrations_out", len(movers))

    # -- phase B ----------------------------------------------------------

    def run_phase_b(
        self, epoch: int, feedbacks_in: List[tuple], probes_in: List[tuple]
    ) -> Outbox:
        """Drive phase B of ``epoch``; returns offer outboxes for X2."""
        pc0 = _time.perf_counter()
        t_next = self.barriers[epoch + 1]
        out: Outbox = {}
        self.sim.at_time(t_next, self._phase_b, epoch, feedbacks_in, probes_in, out)
        self.sim.run(t_next)
        if self.tracer is not None:
            pc1 = _time.perf_counter()
            self.tracer.record(
                epoch,
                "b",
                wall_s=pc1 - pc0,
                barrier_s=(
                    pc0 - self._phase_end_pc
                    if self._phase_end_pc is not None
                    else 0.0
                ),
                records_in={"f": len(feedbacks_in), "p": len(probes_in)},
                outboxes=out,
            )
            self._phase_end_pc = pc1
        self.epochs_done = epoch + 1
        return out

    def _phase_b(
        self,
        epoch: int,
        feedbacks_in: List[tuple],
        probes_in: List[tuple],
        out: Outbox,
    ) -> None:
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
            out.setdefault(self.walker_owner_at(t_deliver, wid), []).append(
                handoff.offer(t, district, wid, sid, burst)
            )

    # -- finalisation -----------------------------------------------------

    def finalize(self, collect_states: bool = True) -> dict:
        """Close out the run: totals, gauges, and the picklable result."""
        batch = self.walkers
        probed = sum(1 for i in self.owned if batch.probes[i] > 0)
        connected = sum(1 for i in self.owned if batch.connected[i])
        self.metrics.inc("shardsim.walkers_probed", probed)
        self.metrics.inc("shardsim.walkers_connected", connected)
        self.metrics.gauge_set("shardsim.stations", self.scenario.stations)
        self.metrics.gauge_set("shardsim.sensors", self.scenario.sensors)
        self.metrics.gauge_set("shardsim.districts", self.part.districts)
        self.metrics.gauge_set("shardsim.epochs", self.epochs)
        self.metrics.gauge_set("shardops.owned_final", len(self.owned), shard=self.shard_id)
        result = {
            "shard": self.shard_id,
            "metrics": _namespace_snapshot(self.metrics.to_dict()),
            "summary": {"probed": probed, "connected": connected},
            "hits": self.hits,
            "walker_rows": None,
            "hunter_states": None,
            "handoff_log": list(self._log) if self._log is not None else None,
        }
        if collect_states:
            result["walker_rows"] = {
                int(i): batch.dynamic_row(i) for i in self.owned
            }
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
            "owned": list(self.owned),
            "rows": {int(i): batch.dynamic_row(i) for i in self.owned},
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
        self.owned = sorted(int(i) for i in payload["owned"])
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
