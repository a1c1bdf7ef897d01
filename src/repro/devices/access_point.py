"""A legitimate venue access point.

Used by the de-authentication extension scenario (paper Section V-B):
clients camped on the venue's real AP send no probes, so the attacker
cannot reach them until a spoofed deauth storm forces a re-scan.  The
AP answers probes with its own SSID and accepts (re-)associations, so a
freed client that still prefers the legitimate network can return to it
— which is exactly the race the de-auth attack has to win.
"""

from __future__ import annotations

from repro.dot11.capabilities import Security
from repro.dot11.frames import (
    AssocRequest,
    AssocResponse,
    AuthRequest,
    AuthResponse,
    Beacon,
    Frame,
    ProbeRequest,
    ProbeResponse,
)
from repro.dot11.mac import MacAddress
from repro.dot11.medium import Medium
from repro.geo.point import Point
from repro.sim.simulation import Simulation


class LegitAp:
    """An honest open AP serving one SSID."""

    def __init__(
        self,
        mac: MacAddress,
        position: Point,
        medium: Medium,
        ssid: str,
        tx_range: float = 50.0,
        response_delay: float = 0.5e-3,
        beacon_interval: float = 0.0,
        channel: int = 6,
    ):
        self.mac = mac
        self.position = position
        self.medium = medium
        self.ssid = ssid
        self.tx_range = tx_range
        self.response_delay = response_delay
        self.beacon_interval = beacon_interval
        self.channel = channel
        self.associations = 0
        self.beacons_sent = 0

    def position_at(self, time: float) -> Point:
        """Fixed installation point."""
        return self.position

    def start(self, sim: Simulation) -> None:
        """Entity hook: attach to the medium and start beaconing."""
        self.sim = sim
        self.medium.attach(self, self.tx_range)
        if self.beacon_interval > 0:
            sim.at(self.beacon_interval, self._beacon)

    def _beacon(self) -> None:
        self.beacons_sent += 1
        self.medium.transmit(
            self, Beacon(self.mac, self.ssid, Security.OPEN)
        )
        self.sim.at(self.beacon_interval, self._beacon)

    def receive(self, frame: Frame, time: float) -> None:
        """Answer probes for our SSID and serve the handshake."""
        if isinstance(frame, ProbeRequest):
            if frame.channel != self.channel:
                return
            if frame.ssid is None or frame.ssid == self.ssid:
                # Real APs answer a beat slower than the attacker's
                # pre-built response cannon.
                self.medium.transmit(
                    self,
                    ProbeResponse(self.mac, frame.src, self.ssid, Security.OPEN),
                    self.response_delay,
                )
        elif isinstance(frame, AuthRequest):
            self.medium.transmit(self, AuthResponse(self.mac, frame.src, True))
        elif isinstance(frame, AssocRequest):
            if frame.ssid == self.ssid:
                self.associations += 1
                self.medium.transmit(
                    self, AssocResponse(self.mac, frame.src, self.ssid, True)
                )
