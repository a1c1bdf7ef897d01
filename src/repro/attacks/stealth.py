"""Stealth City-Hunter: evading the classic detectors.

The plain attacker is trivially detectable: one BSSID advertising forty
SSIDs per burst trips any multi-SSID monitor, and KARMA-style reflection
of arbitrary direct probes walks straight into canary traps.  This
variant — an exploration of the arms race the paper's countermeasure
discussion implies — changes two things:

1. **BSSID-per-SSID**: every advertised SSID gets its own stable alias
   BSSID (real hardware does this with MAC spoofing on one radio).  A
   monitor now sees hundreds of ordinary-looking one-SSID APs instead of
   one chameleon.
2. **No blind mimicry** (optional, default on): direct probes are only
   answered for SSIDs already present in the database, so canary probes
   for freshly invented names go unanswered.  The cost is real — unknown
   direct probes are no longer harvested-and-hit in one step — and is
   measured in ``benchmarks/bench_stealth.py``.

Both changes go through :class:`~repro.attacks.base.RogueAp`'s own
paths: :meth:`StealthCityHunter.station_for` names the alias that
answers for an SSID or owns a BSSID, and the base class sends every
burst, mimic reply and handshake frame from it.  Association still
works: the phone associates to the alias BSSID it saw, the alias hands
the handshake to the hunter's :meth:`~repro.attacks.base.RogueAp.receive`,
and the hit is recorded against the same session — with the same
outage check, metrics and lineage records as the plain hunter.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.hunter import CityHunter
from repro.dot11.frames import Frame, ProbeRequest
from repro.dot11.mac import MacAddress, random_ap_mac
from repro.geo.point import Point
from repro.sim.simulation import Simulation


class _AliasStation:
    """One spoofed BSSID; forwards unicast traffic to the hunter."""

    __slots__ = ("mac", "owner")

    hears_probe_requests = False  # the hunter's own station answers probes

    def __init__(self, mac: MacAddress, owner: "StealthCityHunter"):
        self.mac = mac
        self.owner = owner

    def position_at(self, time: float) -> Point:
        return self.owner.position_at(time)

    def receive(self, frame: Frame, time: float) -> None:
        # Aliases serve only the frames addressed to them (the handshake
        # after a client picked this BSSID); probes are the main
        # station's business — otherwise every alias would answer every
        # broadcast probe.
        if isinstance(frame, ProbeRequest):
            return
        if frame.dst == self.mac:
            self.owner.receive(frame, time)


class StealthCityHunter(CityHunter):
    """City-Hunter with BSSID rotation and optional mimicry discipline."""

    name = "city-hunter-stealth"

    def __init__(self, *args, mimic_unknown: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.mimic_unknown = mimic_unknown
        self._alias_by_ssid: Dict[str, _AliasStation] = {}
        self._alias_by_mac: Dict[MacAddress, _AliasStation] = {}

    def start(self, sim: Simulation) -> None:
        super().start(sim)
        self._alias_rng = sim.rngs.stream("stealth_alias")

    # -- alias management ---------------------------------------------------

    def alias_for(self, ssid: str) -> _AliasStation:
        """The stable spoofed BSSID advertising ``ssid``."""
        alias = self._alias_by_ssid.get(ssid)
        if alias is None:
            mac = random_ap_mac(self._alias_rng)
            while self.medium.is_attached(mac):
                mac = random_ap_mac(self._alias_rng)
            alias = _AliasStation(mac, self)
            self._alias_by_ssid[ssid] = alias
            self._alias_by_mac[mac] = alias
            self.medium.attach(alias, self.tx_range)
        return alias

    def station_for(
        self, ssid: Optional[str] = None, bssid: Optional[MacAddress] = None
    ):
        """The alias advertising ``ssid``, or the alias owning ``bssid``."""
        if ssid is not None:
            return self.alias_for(ssid)
        return self._alias_by_mac.get(bssid, self)

    # -- mimicry discipline ---------------------------------------------------

    def on_direct_probe(self, client: MacAddress, ssid: str, time: float) -> None:
        """Harvest/reflect, but never answer for SSIDs we do not know
        unless ``mimic_unknown`` — that silence is what defeats canaries."""
        if self.mimic_unknown or ssid in self.db:
            super().on_direct_probe(client, ssid, time)
        else:
            # Still learn the SSID (a future client may hold it); just
            # do not blindly impersonate it right now.
            self._learn_direct(ssid, time)
