"""The smartphone entity.

Implements the client side of 802.11 active scanning and open-system
association against the shared medium.  The 40-response ceiling is not
hard-coded here: in ``frame`` fidelity it emerges from arrival times vs.
the MinChannelTime window; in ``burst`` fidelity the same arithmetic is
applied analytically via :class:`~repro.dot11.timing.ScanTiming`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.devices.profiles import DEFAULT_SCAN_PROFILE, ScanProfile
from repro.dot11.frames import (
    AssocRequest,
    AssocResponse,
    AuthRequest,
    AuthResponse,
    Beacon,
    Deauth,
    Frame,
    ProbeRequest,
    ProbeResponse,
)
from repro.dot11.mac import MacAddress
from repro.dot11.medium import Medium
from repro.dot11.timing import DEFAULT_SCAN_TIMING, ScanTiming
from repro.geo.point import Point
from repro.mobility.base import MobilityModel
from repro.population.person import PersonSpec
from repro.sim.simulation import Simulation
from repro.util.units import PROBE_REQUEST_AIRTIME_S

_EPS = 1e-6


def pick_join_target(
    responses: List[ProbeResponse], pnl
) -> Optional[ProbeResponse]:
    """The join policy: first response (arrival order) whose SSID is an
    open, auto-joinable PNL entry; None when nothing qualifies.

    Module-level because the policy is shared — :class:`Phone` applies
    it to a scan window's probe responses, and the shard engine's
    batched walkers (:mod:`repro.sim.shards`) apply the same first-
    matching-entry rule to sorted offer records, so both population
    models make identical join decisions.
    """
    for resp in responses:
        profile = pnl.get(resp.ssid)
        if profile is None:
            continue
        if profile.auto_joinable and resp.security.is_open:
            return resp
    return None


class Phone:
    """One smartphone visiting the scene."""

    IDLE = "idle"
    SCANNING = "scanning"
    ASSOCIATING = "associating"
    CONNECTED = "connected"
    DEPARTED = "departed"

    hears_probe_requests = False  # receive() drops other phones' probes

    def __init__(
        self,
        mac: MacAddress,
        person: PersonSpec,
        mobility: MobilityModel,
        medium: Medium,
        scan_profile: ScanProfile = DEFAULT_SCAN_PROFILE,
        timing: ScanTiming = DEFAULT_SCAN_TIMING,
        tx_range: float = 60.0,
        camped_bssid: Optional[MacAddress] = None,
    ):
        self.mac = mac
        self.person = person
        self.mobility = mobility
        self.medium = medium
        self.scan_profile = scan_profile
        self.timing = timing
        self.tx_range = tx_range
        self.state = Phone.IDLE
        self.connected_bssid: Optional[MacAddress] = camped_bssid
        self.connected_ssid: Optional[str] = None
        if camped_bssid is not None:
            self.state = Phone.CONNECTED
        self.scans_performed = 0
        self.responses_accepted = 0
        self._responses: List[ProbeResponse] = []
        self._window_soft_close: Optional[float] = None
        self._window_hard_close = -1.0
        self._assoc_target: Optional[MacAddress] = None
        self._scan_event = None
        self._interval = 0.0
        self._lineage = None

    # -- Station protocol ---------------------------------------------------

    def position_at(self, time: float) -> Point:
        """Current location (delegates to mobility)."""
        return self.mobility.position_at(time)

    # -- lifecycle ------------------------------------------------------------

    def start(self, sim: Simulation) -> None:
        """Entity hook: attach to the medium and schedule the lifecycle."""
        self.sim = sim
        self._lineage = sim.lineage if sim.lineage.enabled else None
        self._rng: np.random.Generator = sim.rngs.stream("phones")
        self.medium.attach(self, self.tx_range)
        self._interval = self.scan_profile.draw_interval(self._rng)
        lifetime = max(_EPS, self.mobility.t_exit - sim.now)
        sim.at(lifetime, self._depart)
        if self.state is not Phone.CONNECTED:
            first = float(
                self._rng.uniform(0.0, self.scan_profile.first_scan_max_delay)
            )
            self._scan_event = sim.at(min(first, lifetime * 0.9), self._do_scan)

    def _depart(self) -> None:
        self.state = Phone.DEPARTED
        if self._scan_event is not None:
            self._scan_event.cancel()
        self.medium.detach(self.mac)

    def _schedule_next_scan(self) -> None:
        if self.state is Phone.DEPARTED:
            return
        gap = self.scan_profile.jittered(self._interval, self._rng)
        self._scan_event = self.sim.at(gap, self._do_scan)

    # -- scanning -------------------------------------------------------------

    def _do_scan(self) -> None:
        if self.state in (Phone.CONNECTED, Phone.DEPARTED, Phone.ASSOCIATING):
            return
        self.state = Phone.SCANNING
        self.scans_performed += 1
        now = self.sim.now
        self._responses = []
        self._window_soft_close = None
        channels = self.scan_profile.scan_channels
        dwell = 2.0 * self.timing.min_channel_time
        self._window_hard_close = now + len(channels) * dwell
        for idx, channel in enumerate(channels):
            offset = idx * dwell
            self.sim.at(offset, self._probe_channel, channel)
        self.sim.at(len(channels) * dwell + 10 * _EPS, self._finish_scan)

    def _probe_channel(self, channel: int) -> None:
        if self.state is not Phone.SCANNING:
            return
        if self.person.unsafe:
            for ssid in self.person.direct_probe_ssids:
                self.medium.transmit(
                    self,
                    ProbeRequest(self.mac, ssid, channel=channel),
                    PROBE_REQUEST_AIRTIME_S,
                )
        self.medium.transmit(
            self, ProbeRequest(self.mac, channel=channel), PROBE_REQUEST_AIRTIME_S
        )

    def _accept_response(self, frame: ProbeResponse, time: float) -> None:
        if self.state is not Phone.SCANNING:
            return
        if time > self._window_hard_close + _EPS:
            return
        if self._window_soft_close is None:
            self._window_soft_close = time + self.timing.min_channel_time
        elif time >= self._window_soft_close - _EPS:
            return
        self._responses.append(frame)
        self.responses_accepted += 1

    def receive_burst(
        self, responses: List[ProbeResponse], time: float, spacing: float
    ) -> None:
        """Burst-fidelity delivery: apply the window arithmetic directly."""
        if self.state is not Phone.SCANNING:
            return
        room = self.timing.max_responses_per_scan - len(self._responses)
        if room <= 0:
            return
        taken = responses[:room]
        self._responses.extend(taken)
        self.responses_accepted += len(taken)

    def _finish_scan(self) -> None:
        if self.state is not Phone.SCANNING:
            return
        chosen = self._pick_join_target()
        self._responses = []
        if chosen is None:
            self._schedule_next_scan()
            return
        self._begin_association(chosen)

    def _pick_join_target(self) -> Optional[ProbeResponse]:
        """First response (arrival order) matching an open PNL entry."""
        return pick_join_target(self._responses, self.person.pnl)

    # -- association ------------------------------------------------------------

    def _begin_association(self, response: ProbeResponse) -> None:
        self.state = Phone.ASSOCIATING
        self._assoc_target = response.src
        self._assoc_ssid = response.ssid
        lineage = self._lineage
        if lineage is None:
            self.medium.transmit(self, AuthRequest(self.mac, response.src))
        else:
            # _finish_scan runs as its own event, so the delivery context
            # is long gone; re-anchor the handshake to the probe response
            # the phone actually chose.
            with lineage.push(lineage.frame_ctx(response)):
                self.medium.transmit(self, AuthRequest(self.mac, response.src))
        self.sim.at(self.scan_profile.assoc_timeout, self._assoc_timeout)

    def _assoc_timeout(self) -> None:
        if self.state is Phone.ASSOCIATING:
            # Handshake lost (walked out of range?) — fall back to scanning.
            self.state = Phone.IDLE
            self._assoc_target = None
            self._schedule_next_scan()

    # -- frame handling ------------------------------------------------------------

    def receive(self, frame: Frame, time: float) -> None:
        """Handle one delivered frame."""
        if self.state is Phone.DEPARTED:
            return
        if isinstance(frame, ProbeResponse):
            self._accept_response(frame, time)
        elif isinstance(frame, AuthResponse):
            if self.state is Phone.ASSOCIATING and frame.src == self._assoc_target:
                if frame.success:
                    self.medium.transmit(
                        self, AssocRequest(self.mac, frame.src, self._assoc_ssid)
                    )
        elif isinstance(frame, AssocResponse):
            if self.state is Phone.ASSOCIATING and frame.src == self._assoc_target:
                if frame.success:
                    self.state = Phone.CONNECTED
                    self.connected_bssid = frame.src
                    self.connected_ssid = frame.ssid
                    if self._lineage is not None:
                        self._lineage.event(
                            time,
                            "connected",
                            self.mac,
                            bssid=frame.src,
                            ssid=frame.ssid,
                        )
        elif isinstance(frame, Beacon):
            self._handle_beacon(frame)
        elif isinstance(frame, Deauth):
            self._handle_deauth(frame)

    def _handle_beacon(self, frame: Beacon) -> None:
        """Passive discovery: join a beaconing open PNL network.

        Only from the idle state — mid-scan the probe-response path owns
        the decision, and connected phones stay put.
        """
        if self.state is not Phone.IDLE:
            return
        profile = self.person.pnl.get(frame.ssid)
        if profile is None or not profile.auto_joinable:
            return
        if not frame.security.is_open:
            return
        if self._scan_event is not None:
            self._scan_event.cancel()
        self._begin_association(
            ProbeResponse(frame.src, self.mac, frame.ssid, frame.security)
        )

    def _handle_deauth(self, frame: Deauth) -> None:
        if self.state is not Phone.CONNECTED:
            return
        if frame.src != self.connected_bssid:
            return  # spoof must name our AP's BSSID to be believed
        self.state = Phone.IDLE
        self.connected_bssid = None
        self.connected_ssid = None
        self.sim.metrics.inc("phone.deauth_rescans")
        # Immediate rescan: deauth triggers a fresh scan cycle.
        self._scan_event = self.sim.at(
            float(self._rng.uniform(0.2, 2.0)), self._do_scan
        )
