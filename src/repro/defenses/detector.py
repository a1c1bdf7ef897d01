"""Evil-twin detectors.

Both detectors are radio stations attachable to the same medium as the
attack; both report :class:`DetectionEvent` records with the offending
BSSID, the detection time, and the evidence.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.dot11.frames import Frame, ProbeRequest, ProbeResponse
from repro.dot11.mac import MacAddress
from repro.dot11.medium import Medium
from repro.geo.point import Point
from repro.sim.simulation import Simulation


@dataclass(frozen=True)
class DetectionEvent:
    """One rogue-AP verdict."""

    bssid: MacAddress
    time: float
    method: str
    evidence: str


class MultiSsidDetector:
    """Passive monitor: a BSSID advertising many SSIDs is a chameleon.

    Legitimate APs answer probes with their own (one, occasionally a
    handful of) SSIDs; KARMA-family attackers advertise dozens per
    client.  The detector counts distinct SSIDs per source BSSID across
    every overheard probe response and raises an alarm at ``threshold``.
    """

    hears_probe_requests = False  # counts probe responses only

    def __init__(
        self,
        mac: MacAddress,
        position: Point,
        medium: Medium,
        threshold: int = 8,
        tx_range: float = 60.0,
    ):
        if threshold < 2:
            raise ValueError("threshold below 2 would flag legitimate APs")
        self.mac = mac
        self.position = position
        self.medium = medium
        self.threshold = threshold
        self.tx_range = tx_range
        self._ssids_by_bssid: Dict[MacAddress, Set[str]] = defaultdict(set)
        self._flagged: Set[MacAddress] = set()
        self.detections: List[DetectionEvent] = []

    def position_at(self, time: float) -> Point:
        """Fixed observation point."""
        return self.position

    def start(self, sim: Simulation) -> None:
        """Entity hook: attach in monitor (promiscuous) mode."""
        self.sim = sim
        self.medium.attach(self, self.tx_range, promiscuous=True)

    def ssid_count(self, bssid: MacAddress) -> int:
        """Distinct SSIDs overheard from one BSSID so far."""
        return len(self._ssids_by_bssid.get(bssid, ()))

    def is_flagged(self, bssid: MacAddress) -> bool:
        """Whether the BSSID has been declared rogue."""
        return bssid in self._flagged

    def receive(self, frame: Frame, time: float) -> None:
        """Count SSIDs per responder; flag chameleons."""
        if not isinstance(frame, ProbeResponse):
            return
        seen = self._ssids_by_bssid[frame.src]
        seen.add(frame.ssid)
        if len(seen) >= self.threshold and frame.src not in self._flagged:
            self._flagged.add(frame.src)
            self.detections.append(
                DetectionEvent(
                    bssid=frame.src,
                    time=time,
                    method="multi-ssid",
                    evidence=f"{len(seen)} distinct SSIDs advertised",
                )
            )


class CanaryProbeDetector:
    """Active detector: direct-probe SSIDs that cannot exist.

    The canary SSIDs are freshly generated random names; an AP answering
    one is impersonating a network it cannot know, which is precisely
    KARMA behaviour.  (City-Hunter's broadcast machinery is immune to
    this specific trap — it never mimics — but its KARMA-style direct
    handler is not.)
    """

    hears_probe_requests = False  # checks probe responses only

    def __init__(
        self,
        mac: MacAddress,
        position: Point,
        medium: Medium,
        probe_period: float = 30.0,
        tx_range: float = 45.0,
    ):
        if probe_period <= 0:
            raise ValueError("probe_period must be positive")
        self.mac = mac
        self.position = position
        self.medium = medium
        self.probe_period = probe_period
        self.tx_range = tx_range
        self._canaries: Set[str] = set()
        self._flagged: Set[MacAddress] = set()
        self.detections: List[DetectionEvent] = []
        self.probes_sent = 0
        self._rng: Optional[np.random.Generator] = None

    def position_at(self, time: float) -> Point:
        """Fixed observation point."""
        return self.position

    def start(self, sim: Simulation) -> None:
        """Entity hook: attach and begin the canary cadence."""
        self.sim = sim
        self._rng = sim.rngs.stream("canary")
        self.medium.attach(self, self.tx_range)
        sim.at(float(self._rng.uniform(0.1, self.probe_period)), self._probe)

    def _fresh_canary(self) -> str:
        suffix = "".join(
            "0123456789abcdef"[int(d)] for d in self._rng.integers(0, 16, size=10)
        )
        name = f"canary-{suffix}"
        self._canaries.add(name)
        return name

    def _probe(self) -> None:
        ssid = self._fresh_canary()
        self.probes_sent += 1
        self.medium.transmit(self, ProbeRequest(self.mac, ssid))
        self.sim.at(self.probe_period, self._probe)

    def is_flagged(self, bssid: MacAddress) -> bool:
        """Whether the BSSID answered a canary."""
        return bssid in self._flagged

    def receive(self, frame: Frame, time: float) -> None:
        """Any response naming a canary SSID is a guilty verdict."""
        if not isinstance(frame, ProbeResponse):
            return
        if frame.ssid in self._canaries and frame.src not in self._flagged:
            self._flagged.add(frame.src)
            self.detections.append(
                DetectionEvent(
                    bssid=frame.src,
                    time=time,
                    method="canary-probe",
                    evidence=f"answered nonexistent SSID {frame.ssid!r}",
                )
            )
