"""Synthetic population: people, their PNLs, and social groups.

The crowd at a venue is generated on demand: each arrival draws a group
of 1-4 people whose phones carry Preferred Network Lists synthesised
from the city's generative story — home and work networks (mostly
secured), the open public networks of the city (chains, hot venues)
weighted by adoption, the attack venue's own local networks for regulars,
carrier hotspots on iOS, and a personal long tail of small open shops.
Group members share part of their PNLs (families and friends frequent
the same places), which is the mechanism behind the paper's freshness
buffer.

Every draw comes from the scenario's ``population`` stream, and the
crowd is pinned bit for bit (``tests/test_population.py``).  Where a
fixed-length pool gets one independent keep-or-drop draw per entry
(public and local networks, secured chains, a group's shared chains,
a member's inherited core), the pool takes one ``rng.random(n)`` block:
numpy fills it with exactly the doubles that n scalar ``rng.random()``
calls return.  Bounded-integer, Poisson and early-exit draws stay per
item (numpy takes bounded integers from a buffered 32-bit stream, so
batching them would change the bits).
"""

from repro.population.person import OsFamily, PersonSpec
from repro.population.pnl import PnlModel, VenueContext
from repro.population.synthesis import PersonFactory

__all__ = [
    "OsFamily",
    "PersonSpec",
    "PnlModel",
    "VenueContext",
    "PersonFactory",
]
