"""The advanced City-Hunter attacker (paper Section IV).

Implements the four-step loop of Fig. 3: database initialisation from
WiGLE + heat map, online updating (direct-probe harvest, hit-record
weight bumps, freshness list), adaptive PB/FB selection with ghost-list
exploration, and per-client untried bookkeeping.  Direct probes are
handled KARMA-style, as the paper specifies.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

import numpy as np

from repro.attacks.base import RogueAp
from repro.city.heatmap import HeatMap
from repro.core.adaptive import AdaptiveSplit
from repro.core.config import CityHunterConfig
from repro.core.seeding import SeedingStats, seed_database
from repro.core.selection import select_for_client
from repro.core.ssid_database import WeightedSsidDatabase
from repro.dot11.mac import MacAddress
from repro.faults.plan import WigleFaultParams
from repro.sim.simulation import Simulation
from repro.wigle.database import WigleDatabase

_EMPTY_SET: frozenset = frozenset()


class CityHunter(RogueAp):
    """The full adaptive attacker."""

    name = "city-hunter"

    def __init__(
        self,
        *args,
        wigle: WigleDatabase,
        heatmap: Optional[HeatMap],
        config: Optional[CityHunterConfig] = None,
        use_heat: bool = True,
        wigle_faults: Optional[WigleFaultParams] = None,
        wigle_fault_seed: int = 0,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.config = config if config is not None else CityHunterConfig()
        self.seeding_stats = SeedingStats()
        self.db: WeightedSsidDatabase = seed_database(
            wigle,
            heatmap,
            self.position,
            self.config,
            use_heat=use_heat,
            faults=wigle_faults,
            fault_seed=wigle_fault_seed,
            stats=self.seeding_stats,
        )
        self.split = AdaptiveSplit(
            total=self.config.burst_total,
            initial_pb=self.config.initial_pb,
            min_size=self.config.min_buffer,
            enabled=self.config.adaptive,
        )
        self._tried: Dict[MacAddress, Set[str]] = {}
        self._rng: Optional[np.random.Generator] = None

    def start(self, sim: Simulation) -> None:
        """Attach to the medium and claim an RNG stream for ghost picks."""
        super().start(sim)
        self._rng = sim.rngs.stream("cityhunter")
        self.session.record_db_size(sim.now, len(self.db))
        self._record_split(sim.now)
        stats = self.seeding_stats
        if stats.total_skipped:
            if stats.skipped_corrupt:
                sim.metrics.inc(
                    "faults.wigle_records_skipped",
                    stats.skipped_corrupt,
                    kind="corrupt",
                )
            if stats.skipped_missing:
                sim.metrics.inc(
                    "faults.wigle_records_skipped",
                    stats.skipped_missing,
                    kind="missing",
                )
            sim.metrics.inc(
                "seeding.textgen_fallback", stats.textgen_fallback
            )
            sim.record_event(
                "fault.wigle_seed",
                skipped_corrupt=stats.skipped_corrupt,
                skipped_missing=stats.skipped_missing,
                textgen_fallback=stats.textgen_fallback,
            )

    def provenance_of(self, ssid: str, origin) -> str:
        """Refine ``wigle`` into near/heat via the entry's seed class."""
        if origin == "wigle":
            entry = self.db.get(ssid)
            if entry is not None and entry.seed_class:
                return entry.seed_class
        return super().provenance_of(ssid, origin)

    def _record_split(self, time: float) -> None:
        """Append the current PB/FB sizes to the metrics timelines."""
        metrics = self.metrics
        if metrics is None:
            return
        metrics.series_append("hunter.pb_size", time, self.split.pb_size)
        metrics.series_append("hunter.fb_size", time, self.split.fb_size)

    @property
    def db_size(self) -> int:
        """Current database size."""
        return len(self.db)

    # -- probe handling ---------------------------------------------------------

    def on_broadcast_probe(self, client: MacAddress, time: float) -> None:
        """Step 3+4: select and send the best untried SSIDs."""
        if self.config.untried_lists:
            tried = self._tried.setdefault(client, set())
        else:
            tried = _EMPTY_SET
        metas = select_for_client(
            self.db, tried, self.split, self.config, self._rng, now=time
        )
        if not metas:
            return
        if self.config.untried_lists:
            tried.update(ssid for ssid, _, _ in metas)
        self.send_ssid_burst(client, metas, time)

    def on_direct_probe(self, client: MacAddress, ssid: str, time: float) -> None:
        """KARMA-style reflection plus online database updating."""
        if ssid in self.db:
            self.db.bump_weight(ssid, self.config.direct_repeat_bump)
        else:
            self.db.add(
                ssid, self.config.direct_initial_weight, origin="direct", time=time
            )
            self.session.record_db_size(time, len(self.db))
            if self.metrics is not None:
                self.metrics.inc("hunter.db_adds", provenance="overheard-direct")
                self.metrics.gauge_max("hunter.db_size_peak", len(self.db))
        entry = self.db.get(ssid)
        entry.direct_seen = True
        entry.last_direct_seen = time
        self.send_mimic(client, ssid, time)

    # -- online updating on hits ---------------------------------------------------

    def on_hit(self, client: MacAddress, ssid: str, time: float) -> None:
        """Step 2: weight bump, freshness update, buffer adaptation."""
        record = self.session.clients.get(client)
        bucket = record.hit_bucket if record is not None else None
        broadcast_hit = bucket is not None and bucket != "mimic"
        self.db.record_hit(
            ssid,
            time,
            weight_bonus=self.config.hit_weight_bonus,
            fresh=broadcast_hit,
        )
        self.db.trim_recency(self.config.recency_cap)
        if broadcast_hit:
            direction = self.split.on_hit(bucket)
            if direction is not None:
                self._record_split(time)
                if self.metrics is not None:
                    self.metrics.inc("hunter.pbfb_swaps", direction=direction)
                if self.sim is not None:
                    self.sim.record_event(
                        "pbfb_swap",
                        direction=direction,
                        pb=self.split.pb_size,
                        fb=self.split.fb_size,
                        trigger_bucket=bucket,
                        ssid=ssid,
                    )
