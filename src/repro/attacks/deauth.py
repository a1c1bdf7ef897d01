"""De-authentication extension (paper Section V-B).

Clients camped on a legitimate AP barely probe, so the attacker cannot
reach them.  The fix the paper adopts from Bellardo & Savage: spoof
de-authentication frames *as* the legitimate AP, forcing its clients to
disconnect and re-scan — at which point the normal City-Hunter machinery
gets its shot.  The emitter is a separate entity so it can be composed
with any attacker.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.session import AttackSession
from repro.dot11.frames import Deauth
from repro.dot11.mac import BROADCAST_MAC, MacAddress
from repro.dot11.medium import Medium
from repro.geo.point import Point
from repro.sim.simulation import Simulation


class DeauthEmitter:
    """Periodically broadcast spoofed deauth frames for victim BSSIDs."""

    hears_probe_requests = False  # transmit-only

    def __init__(
        self,
        position: Point,
        medium: Medium,
        target_bssids: Sequence[MacAddress],
        period: float = 10.0,
        tx_range: float = 50.0,
        session: Optional[AttackSession] = None,
    ):
        if period <= 0:
            raise ValueError("period must be positive, got %r" % period)
        if not target_bssids:
            raise ValueError("need at least one target BSSID to spoof")
        self.position = position
        self.medium = medium
        self.target_bssids = list(target_bssids)
        self.period = period
        self.tx_range = tx_range
        self.session = session
        # The emitter spoofs src addresses, but the medium still needs a
        # station identity for range lookups.
        self.mac: MacAddress = "02:de:au:th:00:01"

    def position_at(self, time: float) -> Point:
        """Fixed installation point (co-located with the attacker)."""
        return self.position

    def receive(self, frame, time: float) -> None:
        """The emitter only transmits; received frames are ignored."""

    def start(self, sim: Simulation) -> None:
        """Entity hook: begin the deauth cadence."""
        self.sim = sim
        self.medium.attach(self, self.tx_range)
        sim.at(self.period, self._emit)

    def _emit(self) -> None:
        for bssid in self.target_bssids:
            spoofed = Deauth(src=bssid, dst=BROADCAST_MAC)
            self.medium.transmit(self, spoofed)
            if self.session is not None:
                self.session.record_deauth()
        self.sim.metrics.inc("deauth.cycles")
        self.sim.metrics.inc("deauth.frames_sent", len(self.target_bssids))
        self.sim.record_event(
            "deauth_cycle", targets=len(self.target_bssids)
        )
        self.sim.at(self.period, self._emit)
