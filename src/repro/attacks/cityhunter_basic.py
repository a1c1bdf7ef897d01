"""Preliminary City-Hunter (paper Section III).

Two improvements over MANA, nothing more:

1. **Untried lists** — the attacker remembers what it already sent to
   each client MAC and answers every broadcast probe with the next 40
   SSIDs that client has not seen yet (Section III-A).
2. **WiGLE seeding** — the database starts with the 100 free SSIDs
   nearest the attack site followed by the top free SSIDs city-wide by
   AP count (Section III-B); overheard direct-probe SSIDs append at the
   tail.

There is no weighting, no freshness, no adaptation: the database is a
flat ordered list, which is exactly why this design collapses in the
subway passage (Table III) — walkers only ever receive the *nearby*
head, which passersby rarely carry.
"""

from __future__ import annotations

from typing import Dict, List

from repro.attacks.base import RogueAp
from repro.core.selection import DIRECT_ATTRIBUTION_WINDOW_S
from repro.dot11.mac import MacAddress
from repro.wigle.database import WigleDatabase
from repro.wigle.queries import top_ssids_by_count


class CityHunterBasic(RogueAp):
    """MANA + untried lists + WiGLE seeding (flat, unweighted)."""

    name = "cityhunter-basic"

    def __init__(
        self,
        *args,
        wigle: WigleDatabase,
        n_nearby: int = 100,
        n_popular: int = 200,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._db: Dict[str, str] = {}  # ssid -> origin, insertion-ordered
        self._order: List[str] = []
        self._origins: List[str] = []
        self._direct_last_seen: Dict[str, float] = {}
        self._cursor: Dict[MacAddress, int] = {}
        for ssid in wigle.nearest_free_ssids(self.position, n_nearby):
            self._append(ssid, "wigle")
        for ssid, _count in top_ssids_by_count(wigle, n_popular):
            self._append(ssid, "wigle")

    def _append(self, ssid: str, origin: str) -> None:
        if ssid in self._db:
            return
        self._db[ssid] = origin
        self._order.append(ssid)
        self._origins.append(origin)

    @property
    def db_size(self) -> int:
        """Current database size (seeded + harvested)."""
        return len(self._order)

    def on_direct_probe(self, client: MacAddress, ssid: str, time: float) -> None:
        """KARMA-style reflection plus database harvest."""
        if ssid not in self._db:
            self._append(ssid, "direct")
            self.session.record_db_size(time, len(self._order))
        self._direct_last_seen[ssid] = time
        self.send_mimic(client, ssid, time)

    def on_broadcast_probe(self, client: MacAddress, time: float) -> None:
        """Send the next 40 SSIDs this client has not been offered yet.

        The database is append-only, so a per-client cursor *is* the
        untried list: everything before the cursor has been sent.
        """
        start = self._cursor.get(client, 0)
        end = min(start + self.timing.max_responses_per_scan, len(self._order))
        if start >= end:
            return  # database exhausted for this client
        metas = []
        for i in range(start, end):
            ssid = self._order[i]
            seen = self._direct_last_seen.get(ssid, float("-inf"))
            recent = time - seen <= DIRECT_ATTRIBUTION_WINDOW_S
            metas.append((ssid, "direct" if recent else self._origins[i], "db"))
        self._cursor[client] = end
        self.send_ssid_burst(client, metas, time)
