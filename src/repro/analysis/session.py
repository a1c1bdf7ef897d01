"""Per-run attack bookkeeping.

Buckets: ``pb`` / ``pb_ghost`` / ``fb`` / ``fb_ghost`` for the advanced
attacker's buffers, ``db`` for flat-database attackers (MANA, basic
City-Hunter), and ``mimic`` for KARMA-style replies to direct probes.
Origins: ``wigle`` (seeded from the registry), ``direct`` (learned from
an overheard direct probe), ``carrier`` (the Sec. V-B extension), and
``mimic`` for direct-probe reflections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

SentSsid = Tuple[str, str, str]
"""Provenance of one SSID inside one response burst:
``(ssid, origin, bucket)``.

A plain tuple, built and unpacked in place, because the attacker makes
one per SSID it sends and the session keeps its provenance for the
whole run.  CPython's collector stops tracking an exact tuple of
strings and ints the first time it examines it, so a long send history
costs later collections nothing.  A dataclass or ``NamedTuple``
instance stays tracked, and every full collection would walk the lot.
The session's per-client provenance is the same kind of record:
``(origin, bucket, position)``."""


@dataclass
class ClientRecord:
    """Everything the attacker learned about one client MAC."""

    mac: str
    first_seen: float
    direct_prober: bool = False
    probes_seen: int = 0
    ssids_sent: int = 0
    """Database SSIDs sent in response bursts (mimic replies excluded)."""

    connected: bool = False
    hit_time: Optional[float] = None
    hit_ssid: Optional[str] = None
    hit_origin: Optional[str] = None
    hit_bucket: Optional[str] = None
    hit_position: Optional[int] = None
    """1-based position of the hitting SSID in the cumulative send order
    (the paper's 'number of SSIDs sent to this connected client')."""

    @property
    def connected_via_direct(self) -> bool:
        """Whether the hit came from mimicking a direct probe."""
        return self.connected and self.hit_bucket == "mimic"

    @property
    def connected_via_broadcast(self) -> bool:
        """Whether the hit came from a broadcast-response SSID."""
        return self.connected and self.hit_bucket != "mimic"


class AttackSession:
    """Mutable per-run log the attacker writes and the analysis reads."""

    def __init__(self) -> None:
        self.clients: Dict[str, ClientRecord] = {}
        # mac -> ssid -> (origin, bucket, position); see SentSsid.
        self._provenance: Dict[str, Dict[str, Tuple[str, str, int]]] = {}
        self.db_size_series: List[Tuple[float, int]] = []
        self.deauths_sent: int = 0

    # -- attacker-side writers ------------------------------------------------

    def _client(self, mac: str, time: float) -> ClientRecord:
        rec = self.clients.get(mac)
        if rec is None:
            rec = ClientRecord(mac=mac, first_seen=time)
            self.clients[mac] = rec
            self._provenance[mac] = {}
        return rec

    def observe_probe(self, mac: str, time: float, direct: bool) -> None:
        """A probe request arrived from ``mac``."""
        rec = self._client(mac, time)
        rec.probes_seen += 1
        if direct:
            rec.direct_prober = True

    def record_sent(self, mac: str, time: float, metas: Sequence[SentSsid]) -> None:
        """A burst of database SSIDs went out to ``mac``."""
        rec = self._client(mac, time)
        prov = self._provenance[mac]
        position = rec.ssids_sent
        for ssid, origin, bucket in metas:
            position += 1
            prov[ssid] = (origin, bucket, position)
        rec.ssids_sent = position

    def record_mimic(self, mac: str, time: float, ssid: str) -> None:
        """A KARMA-style reflection of a direct probe went out to ``mac``."""
        rec = self._client(mac, time)
        self._provenance[mac][ssid] = ("mimic", "mimic", rec.ssids_sent)

    def record_hit(self, mac: str, time: float, ssid: str) -> ClientRecord:
        """``mac`` associated to us using ``ssid``."""
        rec = self._client(mac, time)
        if rec.connected:
            return rec  # duplicate association (re-assoc) — keep first hit
        rec.connected = True
        rec.hit_time = time
        rec.hit_ssid = ssid
        prov = self._provenance[mac].get(ssid)
        if prov is not None:
            origin, bucket, position = prov
            rec.hit_origin = origin
            rec.hit_bucket = bucket
            rec.hit_position = position if bucket != "mimic" else None
        else:
            # Association to an SSID we never advertised to this client —
            # should not happen, but keep the record honest.
            rec.hit_origin = "unknown"
            rec.hit_bucket = "unknown"
        return rec

    def record_db_size(self, time: float, size: int) -> None:
        """Snapshot the attacker database size (Fig. 1a time series)."""
        self.db_size_series.append((time, size))

    def record_deauth(self) -> None:
        """Count one de-authentication frame sent (Sec. V-B extension)."""
        self.deauths_sent += 1

    # -- convenience readers -----------------------------------------------------

    def tried_count(self, mac: str) -> int:
        """How many database SSIDs have been sent to ``mac`` so far."""
        rec = self.clients.get(mac)
        return rec.ssids_sent if rec is not None else 0

    def records(self) -> List[ClientRecord]:
        """All client records, in first-seen order."""
        return sorted(self.clients.values(), key=lambda r: r.first_seen)

    def broadcast_clients(self) -> List[ClientRecord]:
        """Clients that never revealed an SSID (broadcast-only probers)."""
        return [r for r in self.records() if not r.direct_prober]

    def direct_clients(self) -> List[ClientRecord]:
        """Clients that sent at least one direct probe."""
        return [r for r in self.records() if r.direct_prober]
