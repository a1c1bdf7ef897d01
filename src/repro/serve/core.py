"""The synchronous probe-stream ranking core.

This is the City-Hunter attack loop (paper Section IV) extracted from
the batch simulator into a pure event-in / decision-out state machine:
feed it :class:`~repro.serve.events.ProbeEvent` and
:class:`~repro.serve.events.FeedbackEvent` objects in stream order and
it emits :class:`~repro.serve.events.BurstDecision` objects, mutating
the same :class:`~repro.core.ssid_database.WeightedSsidDatabase`,
:class:`~repro.core.adaptive.AdaptiveSplit` and
:class:`~repro.analysis.session.AttackSession` machinery the inline
:class:`~repro.core.hunter.CityHunter` drives from the medium.

**Equivalence contract.**  For the same seeded database, the same RNG
stream and the same event sequence, :meth:`RankingCore.handle` produces
decisions bit-identical to the inline attacker's transmissions — the
handlers below mirror :meth:`repro.attacks.base.RogueAp.receive` plus
the three ``CityHunter`` hooks *operation for operation*, including the
order of session bookkeeping around each mutation.  The differential
harness (``tests/test_serve_differential.py``) drives both paths with
recorded simulator streams and asserts exactly that, so any divergence
introduced here fails CI rather than silently forking the semantics.

The core is deliberately synchronous and single-threaded: one event, one
state transition, no awaits.  Transport (the bounded queue,
backpressure, shedding) lives in :mod:`repro.serve.service`, whose one
consumer applies events to this core in ingress order.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.analysis.session import AttackSession, SentSsid
from repro.city.heatmap import HeatMap
from repro.core.adaptive import AdaptiveSplit
from repro.core.config import CityHunterConfig
from repro.core.seeding import SeedingStats, seed_database
from repro.core.selection import select_for_client
from repro.core.ssid_database import WeightedSsidDatabase
from repro.faults.plan import WigleFaultParams
from repro.geo.point import Point
from repro.serve.events import BurstDecision, Event, FeedbackEvent, ProbeEvent
from repro.util.rng import derive_seed
from repro.wigle.database import WigleDatabase

RNG_STREAM = "cityhunter"
"""Name of the ghost-pick RNG substream — the same name the inline
attacker claims from ``sim.rngs``, so a core seeded with the scenario
seed replays the identical pick sequence."""

_EMPTY_SET: frozenset = frozenset()


class RankingCore:
    """Per-node ranking state: shared SSID store + per-client sessions.

    The SSID store (``db``), the adaptive PB/FB split and the ghost-pick
    RNG are *shared* across every client the node serves — exactly as in
    the inline attacker, where one database serves every probe the
    medium delivers.  Per-client state (untried lists, session records)
    is keyed by MAC.
    """

    def __init__(
        self,
        db: WeightedSsidDatabase,
        config: Optional[CityHunterConfig] = None,
        rng: Optional[np.random.Generator] = None,
        session: Optional[AttackSession] = None,
    ):
        self.config = config if config is not None else CityHunterConfig()
        self.db = db
        self.session = session if session is not None else AttackSession()
        self.split = AdaptiveSplit(
            total=self.config.burst_total,
            initial_pb=self.config.initial_pb,
            min_size=self.config.min_buffer,
            enabled=self.config.adaptive,
        )
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._tried: Dict[str, Set[str]] = {}
        self.seeding_stats: Optional[SeedingStats] = None
        # Deterministic serving counters (pure functions of the stream).
        self.events_handled = 0
        self.rank_cache_hits = 0
        self.rank_cache_misses = 0
        # Bumped on every db mutation; a selection that runs with the
        # version unchanged reuses the incremental ranking lists with
        # zero maintenance done since — the "cache hit" of the
        # bisect-based ranking from the hot-path PR.
        self._db_version = 0
        self._version_at_last_select = -1

    @classmethod
    def seeded(
        cls,
        wigle: WigleDatabase,
        heatmap: Optional[HeatMap],
        position: Point,
        config: Optional[CityHunterConfig] = None,
        seed: int = 0,
        use_heat: bool = True,
        wigle_faults: Optional[WigleFaultParams] = None,
        wigle_fault_seed: int = 0,
    ) -> "RankingCore":
        """A core seeded exactly like an inline attacker at ``position``.

        ``seed`` is the *scenario* seed: the ghost-pick RNG is derived
        through the same ``(seed, "cityhunter")`` fan-out the
        simulation's :class:`~repro.util.rng.RngRegistry` performs, so a
        service replaying a recorded stream from a seed-``s`` scenario
        consumes the identical pick sequence.
        """
        config = config if config is not None else CityHunterConfig()
        stats = SeedingStats()
        db = seed_database(
            wigle,
            heatmap,
            position,
            config,
            use_heat=use_heat,
            faults=wigle_faults,
            fault_seed=wigle_fault_seed,
            stats=stats,
        )
        rng = np.random.default_rng(derive_seed(seed, RNG_STREAM))
        core = cls(db, config=config, rng=rng)
        core.seeding_stats = stats
        return core

    @property
    def db_size(self) -> int:
        return len(self.db)

    # -- event handlers --------------------------------------------------------
    #
    # Each handler is a line-for-line mirror of the inline path:
    # RogueAp.receive's session bookkeeping, then the CityHunter hook.

    def handle(self, event: Event) -> Optional[BurstDecision]:
        """Apply one event; returns the decision it produced, if any."""
        self.events_handled += 1
        if isinstance(event, ProbeEvent):
            if event.is_direct:
                return self._handle_direct(event)
            return self._handle_broadcast(event)
        if isinstance(event, FeedbackEvent):
            self._handle_feedback(event)
            return None
        raise TypeError("unknown event type %r" % type(event).__name__)

    def _handle_broadcast(self, event: ProbeEvent) -> Optional[BurstDecision]:
        # receive(): probe observed first, then the strategy hook.
        self.session.observe_probe(event.mac, event.time, direct=False)
        # CityHunter.on_broadcast_probe:
        if self.config.untried_lists:
            tried = self._tried.setdefault(event.mac, set())
        else:
            tried = _EMPTY_SET
        if self._db_version == self._version_at_last_select:
            self.rank_cache_hits += 1
        else:
            self.rank_cache_misses += 1
            self._version_at_last_select = self._db_version
        metas = select_for_client(
            self.db, tried, self.split, self.config, self._rng, now=event.time
        )
        if not metas:
            return None
        if self.config.untried_lists:
            tried.update(m.ssid for m in metas)
        # send_ssid_burst(): session first, frames after.
        self.session.record_sent(event.mac, event.time, metas)
        return BurstDecision(event.mac, event.time, "burst", tuple(metas))

    def _handle_direct(self, event: ProbeEvent) -> BurstDecision:
        self.session.observe_probe(event.mac, event.time, direct=True)
        # CityHunter.on_direct_probe: KARMA reflection + online update.
        ssid = event.ssid
        if ssid in self.db:
            self.db.bump_weight(ssid, self.config.direct_repeat_bump)
        else:
            self.db.add(
                ssid,
                self.config.direct_initial_weight,
                origin="direct",
                time=event.time,
            )
            self.session.record_db_size(event.time, len(self.db))
        self._db_version += 1
        entry = self.db.get(ssid)
        entry.direct_seen = True
        entry.last_direct_seen = event.time
        # send_mimic(): session first, frame after.
        self.session.record_mimic(event.mac, event.time, ssid)
        return BurstDecision(
            event.mac,
            event.time,
            "mimic",
            (SentSsid(ssid, origin="mimic", bucket="mimic"),),
        )

    def _handle_feedback(self, event: FeedbackEvent) -> None:
        # receive() AssocRequest path: the session records the hit
        # (first association wins), then the strategy hook adapts.
        record = self.session.record_hit(event.mac, event.time, event.ssid)
        # CityHunter.on_hit:
        bucket = record.hit_bucket
        broadcast_hit = bucket is not None and bucket != "mimic"
        self.db.record_hit(
            event.ssid,
            event.time,
            weight_bonus=self.config.hit_weight_bonus,
            fresh=broadcast_hit,
        )
        self.db.trim_recency(self.config.recency_cap)
        self._db_version += 1
        if broadcast_hit:
            self.split.on_hit(bucket)

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic serving counters (pure functions of the stream)."""
        return {
            "events_handled": self.events_handled,
            "db_size": len(self.db),
            "clients": len(self.session.clients),
            "rank_cache_hits": self.rank_cache_hits,
            "rank_cache_misses": self.rank_cache_misses,
            "pb_size": self.split.pb_size,
            "fb_size": self.split.fb_size,
        }
