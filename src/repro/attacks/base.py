"""Shared rogue-AP machinery.

The base class handles the 802.11 conversation (probe in, responses out,
auth/assoc handshake, hit recording into the :class:`AttackSession`);
concrete attackers only decide *which SSIDs to advertise* by overriding
the two probe hooks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.session import AttackSession, SentSsid
from repro.dot11.capabilities import Security
from repro.dot11.channel import DEFAULT_ATTACK_CHANNEL, Channel, validate_channel
from repro.dot11.frames import (
    AssocRequest,
    AssocResponse,
    AuthRequest,
    AuthResponse,
    Frame,
    ProbeRequest,
    ProbeResponse,
)
from repro.dot11.mac import MacAddress
from repro.dot11.medium import Medium
from repro.dot11.timing import DEFAULT_SCAN_TIMING, ScanTiming
from repro.faults.outages import OutageSchedule
from repro.geo.point import Point
from repro.obs.registry import MetricsRegistry, metric_key
from repro.sim.simulation import Simulation

DEFAULT_ATTACKER_RANGE_M = 55.0
"""Radio reach of the 100 mW prototype (Section V-A)."""

BURST_SIZE_BUCKETS = (1, 2, 5, 10, 20, 30, 40, 80)
"""Histogram bounds for response-burst sizes (the paper caps at 40)."""

PROVENANCE_BY_ORIGIN = {
    "wigle": "wigle",
    "direct": "overheard-direct",
    "carrier": "carrier",
    "mimic": "mimic",
}
"""Coarse origin → metric provenance label.  Attackers with a seeded
weighted database refine ``wigle`` into ``wigle-near`` /
``wigle-heat`` (see :meth:`RogueAp.provenance_of`)."""

_PROBE_KEY = {
    True: metric_key("attacker.probes", {"type": "direct"}),
    False: metric_key("attacker.probes", {"type": "broadcast"}),
}
"""Pre-computed counter keys for the per-probe hot path."""


class RogueAp:
    """Base evil twin: answers probes, completes handshakes, records hits."""

    name = "rogue"

    def __init__(
        self,
        mac: MacAddress,
        position: Point,
        medium: Medium,
        session: Optional[AttackSession] = None,
        timing: ScanTiming = DEFAULT_SCAN_TIMING,
        tx_range: float = DEFAULT_ATTACKER_RANGE_M,
        channel: Channel = DEFAULT_ATTACK_CHANNEL,
    ):
        self.mac = mac
        self.position = position
        self.medium = medium
        self.session = session if session is not None else AttackSession()
        self.timing = timing
        self.tx_range = tx_range
        self.channel = validate_channel(channel)
        self.sim: Optional[Simulation] = None
        self.outages: Optional[OutageSchedule] = None
        self._sent_keys: Dict[SentSsid, str] = {}
        self._lineage = None

    # -- Station protocol ------------------------------------------------------

    def position_at(self, time: float) -> Point:
        """Fixed installation point."""
        return self.position

    def start(self, sim: Simulation) -> None:
        """Entity hook: attach to the medium."""
        self.sim = sim
        self._lineage = sim.lineage if sim.lineage.enabled else None
        self.medium.attach(self, self.tx_range)
        if self.outages is not None and len(self.outages):
            sim.metrics.inc("faults.outages", len(self.outages))
            sim.metrics.inc(
                "faults.outage_downtime_s", self.outages.total_downtime
            )
            for window in self.outages.windows:
                sim.record_event(
                    "fault.outage", start=window.start, end=window.end
                )

    def install_outages(self, schedule: OutageSchedule) -> None:
        """Adopt a radio-outage schedule (scenario builder hook).

        While a window is active the NIC is dead: :meth:`receive` drops
        every frame, so no responses go out and — crucially — no SSIDs
        are marked tried on any per-client untried list.  City-Hunter
        degrades gracefully instead of burning candidates into a NIC
        that cannot answer.
        """
        self.outages = schedule

    def radio_down(self, time: float) -> bool:
        """Whether an injected outage has the radio dead right now."""
        return self.outages is not None and self.outages.down_at(time)

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The owning simulation's registry (None before ``start``)."""
        return self.sim.metrics if self.sim is not None else None

    def station_for(
        self, ssid: Optional[str] = None, bssid: Optional[MacAddress] = None
    ):
        """The station that answers for ``ssid``, or that owns ``bssid``:
        this AP itself.  An attacker that spreads its SSIDs over several
        BSSIDs returns the matching one, and every response, mimic and
        handshake frame goes out from it."""
        return self

    def provenance_of(self, ssid: str, origin: Optional[str]) -> str:
        """Metric provenance label for one advertised/hit SSID.

        The base mapping is by coarse origin; attackers with a seeded
        database override this to split WiGLE-near from city-wide
        heat-ranked entries.
        """
        if origin is None:
            return "unknown"
        return PROVENANCE_BY_ORIGIN.get(origin, origin)

    # -- strategy hooks ------------------------------------------------------

    def on_broadcast_probe(self, client: MacAddress, time: float) -> None:
        """Called for each broadcast probe received.  Default: ignore."""

    def on_direct_probe(self, client: MacAddress, ssid: str, time: float) -> None:
        """Called for each direct probe received.  Default: ignore."""

    def on_hit(self, client: MacAddress, ssid: str, time: float) -> None:
        """Called after a client associated.  Default: nothing."""

    # -- frame handling ------------------------------------------------------

    def receive(self, frame: Frame, time: float) -> None:
        """Dispatch one received frame."""
        metrics = self.metrics
        if self.radio_down(time):
            if metrics is not None:
                metrics.inc(
                    "faults.outage_frames_dropped",
                    frame=type(frame).__name__,
                )
            return
        if isinstance(frame, ProbeRequest):
            if frame.channel != self.channel:
                return  # probing a channel we are not camped on
            direct = not frame.is_broadcast_probe
            self.session.observe_probe(frame.src, time, direct)
            if metrics is not None:
                metrics.inc_key(_PROBE_KEY[direct])
            if direct:
                self.on_direct_probe(frame.src, frame.ssid, time)
            else:
                self.on_broadcast_probe(frame.src, time)
        elif isinstance(frame, AuthRequest):
            station = self.station_for(bssid=frame.dst)
            self.medium.transmit(station, AuthResponse(station.mac, frame.src, True))
        elif isinstance(frame, AssocRequest):
            prior = self.session.clients.get(frame.src)
            fresh_hit = prior is None or not prior.connected
            record = self.session.record_hit(frame.src, time, frame.ssid)
            if fresh_hit:
                self._count_hit(record)
                if self._lineage is not None:
                    # Parent defaults to the current delivery context, so
                    # the hit chains back through the AssocRequest to the
                    # probe response that advertised the SSID.
                    self._lineage.event(
                        time,
                        "hit",
                        self.mac,
                        client=frame.src,
                        ssid=frame.ssid,
                        origin=record.hit_origin,
                        bucket=record.hit_bucket,
                    )
            station = self.station_for(bssid=frame.dst)
            self.medium.transmit(
                station, AssocResponse(station.mac, frame.src, frame.ssid, True)
            )
            self.on_hit(frame.src, frame.ssid, time)

    def _count_hit(self, record) -> None:
        """Metric bookkeeping for one first-time association."""
        metrics = self.metrics
        if metrics is None:
            return
        metrics.inc(
            "attacker.hits",
            provenance=self.provenance_of(record.hit_ssid, record.hit_origin),
            bucket=record.hit_bucket or "unknown",
        )
        metrics.inc("attacker.hit_ssids", ssid=record.hit_ssid)

    # -- transmit helpers ------------------------------------------------------

    def send_mimic(self, client: MacAddress, ssid: str, time: float) -> None:
        """Reply to a direct probe with an open evil twin of ``ssid``."""
        self.session.record_mimic(client, time, ssid)
        self._count_sent([(ssid, "mimic", "mimic")])
        station = self.station_for(ssid)
        self.medium.transmit(
            station,
            ProbeResponse(station.mac, client, ssid, Security.OPEN),
            self.timing.response_airtime,
        )

    def send_ssid_burst(
        self, client: MacAddress, metas: Sequence[SentSsid], time: float
    ) -> None:
        """Advertise database SSIDs to ``client`` back-to-back."""
        if not metas:
            return
        self.session.record_sent(client, time, metas)
        self._count_sent(metas)
        # Security.OPEN is read once: an enum member lookup per SSID
        # costs about a third of building that SSID's frame.
        station_for = self.station_for
        open_ = Security.OPEN
        responses: List[ProbeResponse] = [
            ProbeResponse(station_for(ssid).mac, client, ssid, open_)
            for ssid, _, _ in metas
        ]
        lineage = self._lineage
        if lineage is None:
            self.medium.transmit_response_burst(
                self, responses, self.timing.response_airtime
            )
            return
        # The selection record carries each candidate's PB/FB/ghost bucket
        # and provenance; pushing it makes every response in the burst a
        # child, so the story reads probe -> selection -> responses.
        ctx = lineage.event(
            time,
            "burst_select",
            self.mac,
            client=client,
            size=len(metas),
            candidates=[
                {"ssid": ssid, "bucket": bucket, "origin": origin}
                for ssid, origin, bucket in metas
            ],
        )
        with lineage.push(ctx):
            self.medium.transmit_response_burst(
                self, responses, self.timing.response_airtime
            )

    def _count_sent(self, metas: Sequence[SentSsid]) -> None:
        """Metric bookkeeping for one outgoing response burst.

        Each ``(ssid, origin, bucket)`` maps to one flat
        ``attacker.ssids_sent`` key for the attacker's lifetime (both
        :meth:`provenance_of` implementations are fixed per SSID and
        origin), so a burst costs one dict lookup per SSID and one
        counter update per distinct key.  Totals are identical to
        per-SSID increments, and so is counter insertion order (a key
        first appears exactly when its first SSID would have)."""
        metrics = self.metrics
        if metrics is None:
            return
        metrics.inc("attacker.responses_sent", len(metas))
        keys = self._sent_keys
        grouped: Dict[str, int] = {}
        for meta in metas:
            key = keys.get(meta)
            if key is None:
                ssid, origin, bucket = meta
                key = keys[meta] = metric_key(
                    "attacker.ssids_sent",
                    {"provenance": self.provenance_of(ssid, origin),
                     "bucket": bucket},
                )
            grouped[key] = grouped.get(key, 0) + 1
        for key, count in grouped.items():
            metrics.inc_key(key, count)
        metrics.observe(
            "attacker.burst_size", len(metas), buckets=BURST_SIZE_BUCKETS
        )
