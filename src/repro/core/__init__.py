"""The paper's primary contribution: the advanced City-Hunter attacker.

Pieces (paper Section IV):

* :mod:`repro.core.weights` — rank-order ratio weighting (Barron &
  Barrett) for the seeded SSIDs;
* :mod:`repro.core.ssid_database` — the weighted, hit-aware SSID store;
* :mod:`repro.core.seeding` — database initialisation from the WiGLE
  registry: 100 nearest + 200 ranked by photo-heat value;
* :mod:`repro.core.adaptive` — the ARC-inspired PB/FB size adaptation;
* :mod:`repro.core.selection` — per-client assembly of the popularity &
  freshness buffers (with their ghost lists) into the 40-SSID burst,
  honouring untried lists;
* :mod:`repro.core.kernel` — :class:`HunterKernel`, the one copy of the
  decision loop tying it all together (plus the Sec. V-B carrier-SSID
  extension), with per-client state under an opaque client key;
* :mod:`repro.core.hunter` — the :class:`CityHunter` attacker, the
  kernel's adapter to frames on the simulated medium.
"""

from repro.core.adaptive import AdaptiveSplit
from repro.core.config import CityHunterConfig
from repro.core.hunter import CityHunter
from repro.core.kernel import HunterKernel
from repro.core.seeding import seed_database
from repro.core.selection import select_for_client
from repro.core.ssid_database import SsidEntry, WeightedSsidDatabase
from repro.core.weights import rank_order_weights

__all__ = [
    "AdaptiveSplit",
    "CityHunterConfig",
    "CityHunter",
    "HunterKernel",
    "seed_database",
    "select_for_client",
    "SsidEntry",
    "WeightedSsidDatabase",
    "rank_order_weights",
]
