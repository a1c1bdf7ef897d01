"""PNL synthesis model.

:class:`PnlModel` holds every probability of the PNL generative story;
:class:`VenueContext` anchors it to one attack site (which venue, which
networks are physically nearby).  The defaults are the calibrated values
that land the reproduction inside the paper's bands; tests assert the
resulting marginals (PNL sizes, open-entry rates, top-40 coverage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.city.model import City
from repro.city.venues import Venue
from repro.dot11.capabilities import NetworkProfile, Security
from repro.population.person import OsFamily
from repro.util import textgen
from repro.util.rng import choice_cdf, draw_index

CARRIER_SSIDS: Dict[str, float] = {
    "PCCW1x": 0.35,
    "CSL Auto Connect": 0.25,
    "SmarTone Auto WiFi": 0.20,
    "3HK Wi-Fi Auto": 0.20,
}
"""Mobile-carrier hotspot SSIDs preloaded into iOS PNLs, with each
carrier's subscriber share.  Deliberately absent from the WiGLE registry
(the paper notes carrier SSIDs 'generally cannot be obtained from WiGLE,
or from direct probes')."""


@dataclass(frozen=True)
class PnlModel:
    """All probabilities of PNL synthesis."""

    p_home_open: float = 0.18
    """P(the home router is open) — open home networks are unique-SSID
    and therefore useless to the attacker, but they make direct probes
    occasionally exploitable."""

    p_has_work: float = 0.55
    p_work_open: float = 0.05

    ios_share: float = 0.45
    p_ios_carrier: float = 0.55
    """P(an iOS user subscribes to a carrier whose hotspot SSID is
    preloaded)."""

    long_tail_mean: float = 0.3
    """Poisson mean of personal open shop networks (cafés the person
    frequents) — the diversity source of direct probes."""

    p_unsafe: float = 0.15
    """P(the phone still sends direct probes)."""

    direct_probe_home_weight: float = 0.45
    direct_probe_work_weight: float = 0.20
    direct_probe_public_weight: float = 0.95
    direct_probe_shop_weight: float = 0.20
    """Per-category probabilities that an unsafe phone reveals a PNL
    entry of that kind.  Home/work dominate (hidden-network candidates),
    so MANA's database fills mostly with unique junk; the occasional
    public-network reveal is what seeds the direct-probe source class of
    Fig. 6.  Carrier profiles are never probed (SIM-managed)."""

    max_direct_probes: int = 5

    neighbour_affinity_factor: float = 0.02
    """Local affinity multiplier for networks near (but not at) the
    attack venue."""

    secured_public_scale: float = 1.0
    """Multiplier on adoption of the *secured* public networks (eduroam
    etc.) — present in PNLs, never exploitable."""


@dataclass
class VenueContext:
    """The attack site as seen by PNL synthesis."""

    venue: Venue
    neighbour_open_ssids: Sequence[str] = field(default_factory=tuple)
    """Open SSIDs physically near the venue (excluding the venue's own)."""


@dataclass
class BuiltPnl:
    """One synthesised PNL plus the identities of its home/work entries."""

    pnl: Dict[str, NetworkProfile]
    home_ssid: str
    work_ssid: str


class PnlBuilder:
    """Draws one person's PNL from the model. Stateless across calls
    except for the RNG it consumes.

    Everything that is fixed for a run is built once here: the pools
    with their thresholds, one validated :class:`NetworkProfile` per
    pool entry (profiles are frozen, so people share them), the carrier
    cdf and the set of public SSIDs. Each pool of independent
    keep-or-drop draws takes one ``rng.random(n)`` block, which holds
    exactly the doubles of n scalar calls (see :mod:`repro.population`).
    """

    def __init__(self, city: City, context: VenueContext, model: PnlModel,
                 rng: np.random.Generator):
        self.city = city
        self.context = context
        self.model = model
        self.rng = rng
        open_ = Security.OPEN
        self._public = [
            (NetworkProfile(p.ssid, open_), p.adoption) for p in city.public_pool
        ]
        affinity = context.venue.local_affinity
        neighbour_p = affinity * model.neighbour_affinity_factor
        self._local = [
            (NetworkProfile(ssid, open_), affinity)
            for ssid in context.venue.wifi_ssids
        ] + [
            (NetworkProfile(ssid, open_), neighbour_p)
            for ssid in context.neighbour_open_ssids
        ]
        self._secured_public = [
            (
                NetworkProfile(spec.name, spec.security),
                spec.adoption
                * city.config.adoption_scale
                * model.secured_public_scale,
            )
            for spec in city.chains
            if not spec.security.is_open
        ]
        self._shops = city.open_shop_ssids
        self._carriers = [NetworkProfile(name, open_) for name in CARRIER_SSIDS]
        self._carrier_cdf = choice_cdf(
            list(CARRIER_SSIDS.values()), "CARRIER_SSIDS"
        )
        self._public_ssids = frozenset(
            [profile.ssid for profile, _ in self._public]
            + list(context.venue.wifi_ssids)
        )

    # -- pieces ------------------------------------------------------------

    def _home_profile(self) -> Tuple[str, NetworkProfile]:
        ssid = textgen.home_router_ssid(self.rng)
        open_ = self.rng.random() < self.model.p_home_open
        sec = Security.OPEN if open_ else Security.WPA2_PSK
        return ssid, NetworkProfile(ssid, sec)

    def _work_profile(self) -> Tuple[str, NetworkProfile]:
        ssid = textgen.corporate_ssid(self.rng)
        open_ = self.rng.random() < self.model.p_work_open
        sec = Security.OPEN if open_ else Security.WPA2_ENTERPRISE
        return ssid, NetworkProfile(ssid, sec)

    def _public_draws(self, scale: float = 1.0) -> List[NetworkProfile]:
        draws = self.rng.random(len(self._public)).tolist()
        return [
            profile
            for (profile, adoption), u in zip(self._public, draws)
            if u < adoption * scale
        ]

    def _local_draws(self) -> List[NetworkProfile]:
        return _kept(self._local, self.rng)

    def _long_tail(self) -> List[NetworkProfile]:
        if not self._shops:
            return []
        count = int(self.rng.poisson(self.model.long_tail_mean))
        out = []
        for _ in range(count):
            ssid = self._shops[int(self.rng.integers(len(self._shops)))]
            out.append(NetworkProfile(ssid, Security.OPEN))
        return out

    def _carrier(self, os_family: OsFamily) -> List[NetworkProfile]:
        if os_family is not OsFamily.IOS:
            return []
        if self.rng.random() >= self.model.p_ios_carrier:
            return []
        return [self._carriers[draw_index(self._carrier_cdf, self.rng)]]

    def _secured_public_draws(self) -> List[NetworkProfile]:
        return _kept(self._secured_public, self.rng)

    # -- assembly -----------------------------------------------------------

    def build(
        self,
        os_family: OsFamily,
        extra: Sequence[NetworkProfile] = (),
        public_personal_scale: float = 1.0,
    ) -> "BuiltPnl":
        """One complete PNL; ``extra`` injects group-shared entries.

        ``public_personal_scale`` shrinks the personal public-network
        draws for group members, whose group core already carries the
        shared public draws — keeping every person's *marginal* adoption
        equal while making companions' PNLs correlate.
        """
        pnl: Dict[str, NetworkProfile] = {}
        home_ssid, home = self._home_profile()
        pnl[home_ssid] = home
        work_ssid = ""
        if self.rng.random() < self.model.p_has_work:
            work_ssid, work = self._work_profile()
            pnl[work_ssid] = work
        for profile in self._public_draws(public_personal_scale):
            pnl.setdefault(profile.ssid, profile)
        for profile in self._local_draws():
            pnl.setdefault(profile.ssid, profile)
        for profile in self._long_tail():
            pnl.setdefault(profile.ssid, profile)
        for profile in self._carrier(os_family):
            pnl.setdefault(profile.ssid, profile)
        for profile in self._secured_public_draws():
            pnl.setdefault(profile.ssid, profile)
        for profile in extra:
            pnl.setdefault(profile.ssid, profile)
        return BuiltPnl(pnl=pnl, home_ssid=home_ssid, work_ssid=work_ssid)

    def pick_direct_probes(
        self, pnl: Dict[str, NetworkProfile], home_ssid: str, work_ssid: str = ""
    ) -> Tuple[str, ...]:
        """Which PNL entries an unsafe phone reveals in direct probes.

        Each category is revealed with its own probability (home/work
        first, then public networks, then shops); at most
        ``max_direct_probes`` distinct SSIDs, carriers never.
        """
        m = self.model
        public = self._public_ssids
        chosen: List[str] = []
        if home_ssid in pnl and self.rng.random() < m.direct_probe_home_weight:
            chosen.append(home_ssid)
        if (
            work_ssid
            and work_ssid in pnl
            and self.rng.random() < m.direct_probe_work_weight
        ):
            chosen.append(work_ssid)
        for ssid in pnl:
            if len(chosen) >= m.max_direct_probes:
                break
            if ssid in (home_ssid, work_ssid) or ssid in CARRIER_SSIDS:
                continue
            p = (
                m.direct_probe_public_weight
                if ssid in public
                else m.direct_probe_shop_weight
            )
            if self.rng.random() < p:
                chosen.append(ssid)
        if not chosen and pnl:
            # An unsafe phone probes *something*; default to home.
            chosen.append(home_ssid if home_ssid in pnl else next(iter(pnl)))
        return tuple(chosen[: m.max_direct_probes])


def _kept(pool: Sequence[Tuple[NetworkProfile, float]],
          rng: np.random.Generator) -> List[NetworkProfile]:
    """The profiles of ``pool`` whose draw falls below their probability,
    with one block draw for the whole pool."""
    draws = rng.random(len(pool)).tolist()
    return [profile for (profile, p), u in zip(pool, draws) if u < p]
