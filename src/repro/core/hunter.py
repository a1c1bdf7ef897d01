"""The advanced City-Hunter attacker (paper Section IV).

The medium side of the four-step loop of Fig. 3: frames and the attack
session go through :class:`~repro.attacks.base.RogueAp`, every decision
through :class:`~repro.core.kernel.HunterKernel`, and this adapter turns
what each kernel handler reports into the ``hunter.*`` metrics, series
and ``pbfb_swap`` events.  Direct probes are handled KARMA-style, as
the paper specifies.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import RogueAp
from repro.city.heatmap import HeatMap
from repro.core.config import CityHunterConfig
from repro.core.kernel import RNG_STREAM, HunterKernel
from repro.dot11.mac import MacAddress
from repro.faults.plan import WigleFaultParams
from repro.sim.simulation import Simulation
from repro.wigle.database import WigleDatabase


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
        self.kernel = kernel = HunterKernel.seeded(
            wigle,
            heatmap,
            self.position,
            config=config,
            use_heat=use_heat,
            wigle_faults=wigle_faults,
            wigle_fault_seed=wigle_fault_seed,
        )
        # The kernel never rebinds these, so the aliases stay current.
        self.config, self.db, self.split = kernel.config, kernel.db, kernel.split

    @property
    def db_size(self) -> int:
        """Current database size."""
        return len(self.db)

    def start(self, sim: Simulation) -> None:
        """Attach to the medium and claim an RNG stream for ghost picks."""
        super().start(sim)
        # The registry's cached stream, so attackers sharing one
        # simulation share one ghost-pick sequence.
        self.kernel.rng = sim.rngs.stream(RNG_STREAM)
        self.session.record_db_size(sim.now, len(self.db))
        self._record_split(sim.now)
        stats = self.kernel.seeding_stats
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

    # -- probe handling ---------------------------------------------------------

    def on_broadcast_probe(self, client: MacAddress, time: float) -> None:
        """Step 3+4: select and send the best untried SSIDs."""
        metas = self.kernel.select(client, time)
        if metas:
            self.send_ssid_burst(client, metas, time)

    def on_direct_probe(self, client: MacAddress, ssid: str, time: float) -> None:
        """KARMA-style reflection plus online database updating."""
        self._learn_direct(ssid, time)
        self.send_mimic(client, ssid, time)

    def _learn_direct(self, ssid: str, time: float) -> None:
        """Harvest one direct-probed SSID; account for a database add."""
        if not self.kernel.learn_direct(ssid, time):
            return
        size = len(self.db)
        self.session.record_db_size(time, size)
        if self.metrics is not None:
            self.metrics.inc("hunter.db_adds", provenance="overheard-direct")
            self.metrics.gauge_max("hunter.db_size_peak", size)

    # -- online updating on hits ---------------------------------------------------

    def on_hit(self, client: MacAddress, ssid: str, time: float) -> None:
        """Step 2: weight bump, freshness update, buffer adaptation."""
        record = self.session.clients.get(client)
        bucket = record.hit_bucket if record is not None else None
        direction = self.kernel.hit(ssid, bucket, time)
        if direction is None:
            return
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
