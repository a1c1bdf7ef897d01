"""The MANA attacker (Dominic & de Villiers, DEF CON 22 — baseline #2).

MANA extends KARMA with a global SSID database harvested from overheard
direct probes; a broadcast probe is answered with the *whole* database in
insertion order.  The client's listening window cuts reception at ~40
responses, so in practice only the head of the database is ever tested —
the inefficiency the paper's Section III-A diagnoses.
"""

from __future__ import annotations

from typing import Dict, List

from repro.attacks.base import RogueAp
from repro.dot11.mac import MacAddress


class ManaAttacker(RogueAp):
    """Harvest direct-probe SSIDs; answer broadcasts with the whole DB."""

    name = "mana"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # dicts preserve insertion order — exactly MANA's send order.
        self._db: Dict[str, None] = {}

    @property
    def db_size(self) -> int:
        """Current number of harvested SSIDs."""
        return len(self._db)

    def db_ssids(self) -> List[str]:
        """Database contents in insertion (= send) order."""
        return list(self._db)

    def on_direct_probe(self, client: MacAddress, ssid: str, time: float) -> None:
        """Store the revealed SSID and reflect it KARMA-style."""
        if ssid not in self._db:
            self._db[ssid] = None
            self.session.record_db_size(time, len(self._db))
        self.send_mimic(client, ssid, time)

    def on_broadcast_probe(self, client: MacAddress, time: float) -> None:
        """Answer with the full database, head first.

        MANA transmits everything; the client's MinChannelTime window
        means only the first ``max_responses_per_scan`` land, so we cap
        the physical burst at twice that — the tail could never be
        received and simulating its airtime changes nothing observable.
        """
        cap = 2 * self.timing.max_responses_per_scan
        metas = [(ssid, "direct", "db") for ssid in list(self._db)[:cap]]
        self.send_ssid_burst(client, metas, time)
