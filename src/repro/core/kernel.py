"""The City-Hunter decision kernel (paper Section IV, Fig. 3).

The one copy of the paper's loop, free of any transport: the
WiGLE-seeded database, the adaptive PB/FB split, the ghost-pick RNG, a
database-version counter and the per-client untried lists.  Each
handler returns what changed, so the adapters —
:class:`~repro.core.hunter.CityHunter` on the simulated medium and
:class:`~repro.serve.core.RankingCore` on an event stream — publish
metrics and session records without re-deriving it.  Per-client state
is keyed by any hashable client key.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

import numpy as np

from repro.analysis.session import SentSsid
from repro.city.heatmap import HeatMap
from repro.core.adaptive import AdaptiveSplit
from repro.core.config import CityHunterConfig
from repro.core.seeding import SeedingStats, seed_database
from repro.core.selection import select_for_client
from repro.core.ssid_database import WeightedSsidDatabase
from repro.faults.plan import WigleFaultParams
from repro.geo.point import Point
from repro.util.rng import derive_seed
from repro.wigle.database import WigleDatabase

RNG_STREAM = "cityhunter"
"""The ghost-pick RNG substream: a simulated attacker claims it from
``sim.rngs``, and :meth:`HunterKernel.seeded` derives it the same way."""

_EMPTY_SET: frozenset = frozenset()


class HunterKernel:
    """One SSID store shared by every client, and an untried list per
    client key."""

    def __init__(
        self,
        db: WeightedSsidDatabase,
        config: CityHunterConfig,
        rng: np.random.Generator,
        seeding_stats: SeedingStats,
    ):
        self.config = config
        self.db = db
        self.split = AdaptiveSplit(
            total=config.burst_total,
            initial_pb=config.initial_pb,
            min_size=config.min_buffer,
            enabled=config.adaptive,
        )
        self.rng = rng
        self.seeding_stats = seeding_stats
        # The untried lists, stored as their complement: the SSIDs
        # already offered to each client key.
        self.tried: Dict[Hashable, Set[str]] = {}
        self.version = 0  # bumped on every database mutation

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
    ) -> "HunterKernel":
        """A kernel seeded for an attacker at ``position``; ``seed`` is the
        scenario seed the ghost-pick RNG is derived from."""
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
        return cls(db, config, rng, stats)

    def select(self, client: Hashable, now: float) -> List[SentSsid]:
        """Steps 3+4: the burst for one broadcast probe, marked tried on
        the client's untried list (empty when nothing is left)."""
        if self.config.untried_lists:
            tried = self.tried.setdefault(client, set())
        else:
            tried = _EMPTY_SET
        metas = select_for_client(
            self.db, tried, self.split, self.config, self.rng, now=now
        )
        if metas and self.config.untried_lists:
            tried.update(ssid for ssid, _, _ in metas)
        return metas

    def learn_direct(self, ssid: str, now: float) -> bool:
        """Step 2, direct-probe harvest; True when ``ssid`` was new."""
        db = self.db
        new = ssid not in db
        if new:
            db.add(
                ssid, self.config.direct_initial_weight, origin="direct", time=now
            )
        else:
            db.bump_weight(ssid, self.config.direct_repeat_bump)
        self.version += 1
        entry = db.get(ssid)
        entry.direct_seen = True
        entry.last_direct_seen = now
        return new

    def hit(self, ssid: str, bucket: Optional[str], now: float) -> Optional[str]:
        """Step 2, hit record.  Only a broadcast hit (``bucket`` not None
        or ``mimic``) refreshes the freshness list and feeds the split.
        Returns the split's swap direction when it moved, else None."""
        broadcast_hit = bucket is not None and bucket != "mimic"
        self.db.record_hit(
            ssid,
            now,
            weight_bonus=self.config.hit_weight_bonus,
            fresh=broadcast_hit,
        )
        self.db.trim_recency(self.config.recency_cap)
        self.version += 1
        return self.split.on_hit(bucket) if broadcast_hit else None
