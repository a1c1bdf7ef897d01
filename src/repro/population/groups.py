"""Social-group PNL sharing.

People who walk (or eat) together share history: families share the home
router, friend groups share the cafés they frequent.  A group *core* is
the set of network profiles the group has in common; each member inherits
each core entry with high probability.  This shared structure is what
gives a freshly-hit SSID predictive power over the companions of the hit
client — the entire premise of City-Hunter's freshness buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.dot11.capabilities import NetworkProfile, Security
from repro.util import textgen


@dataclass(frozen=True)
class GroupModel:
    """Probabilities of the group-sharing story."""

    p_shared_home: float = 0.55
    """P(the group is a household sharing one home router)."""

    p_hangout: float = 0.50
    """P(the group shares at least one open 'hangout' network)."""

    max_hangouts: int = 2

    p_inherit: float = 0.85
    """P(a member inherits one particular core entry)."""

    hangout_local_factor: float = 5.0
    """Multiplier on the venue's local affinity giving P(a hangout
    network sits near the current venue).  A campus canteen is a place
    groups actually frequent; a subway passage is not."""

    max_hangout_local: float = 0.30

    public_share_factor: float = 0.8
    """Families and friend groups visit the same chains: each public
    SSID joins the group core with ``adoption * public_share_factor``.
    This intra-group correlation is what lets a freshly-hit SSID find
    the hit client's companions (the freshness buffer's food supply)."""


def draw_group_core(
    model: GroupModel,
    open_shop_ssids: Sequence[str],
    rng: np.random.Generator,
    local_shop_ssids: Sequence[str] = (),
    p_local: float = 0.0,
    public_pool: Sequence = (),
) -> List[NetworkProfile]:
    """The network profiles shared by one group.

    ``p_local`` is the venue-dependent probability that a hangout is
    one of the networks near the current venue (see
    ``GroupModel.hangout_local_factor``); ``public_pool`` is the city's
    (ssid, adoption) list for the shared-chain draws.
    """
    share = model.public_share_factor
    draws = rng.random(len(public_pool)).tolist()
    core: List[NetworkProfile] = [
        NetworkProfile(pub.ssid, Security.OPEN)
        for pub, u in zip(public_pool, draws)
        if u < pub.adoption * share
    ]
    if rng.random() < model.p_shared_home:
        home = textgen.home_router_ssid(rng)
        sec = Security.OPEN if rng.random() < 0.15 else Security.WPA2_PSK
        core.append(NetworkProfile(home, sec))
    if open_shop_ssids and rng.random() < model.p_hangout:
        count = 1 + int(rng.integers(model.max_hangouts))
        for _ in range(count):
            pool = open_shop_ssids
            if local_shop_ssids and rng.random() < p_local:
                pool = local_shop_ssids
            ssid = pool[int(rng.integers(len(pool)))]
            core.append(NetworkProfile(ssid, Security.OPEN))
    return core


def member_share(
    core: Sequence[NetworkProfile],
    model: GroupModel,
    rng: np.random.Generator,
) -> List[NetworkProfile]:
    """The subset of the core one member actually carries."""
    if not core:
        return []
    p_inherit = model.p_inherit
    draws = rng.random(len(core)).tolist()
    return [p for p, u in zip(core, draws) if u < p_inherit]
