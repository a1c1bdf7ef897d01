"""The assembled city model.

``build_city`` wires venues + chain catalog + AP deployment + photo
corpus + heat map into one :class:`City` object, and precomputes the
*public pool*: every open public SSID together with its adoption
probability (the chance a random urbanite carries it in their PNL).
The public pool is what PNL synthesis draws from, and — because the same
SSIDs are also what the WiGLE registry ranks — it is the ground truth
the attack is trying to estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.city.aps import AccessPoint, deploy_access_points
from repro.city.chains import (
    ADOPTION_SCALE,
    ChainSpec,
    default_chain_catalog,
    scaled_adoption,
)
from repro.city.heatmap import HeatMap
from repro.city.photos import generate_photos
from repro.city.venues import Venue, VenueKind, default_venues
from repro.geo.region import Rect

_VENUE_ADOPTION: Dict[VenueKind, float] = {
    VenueKind.AIRPORT: 0.013,
    VenueKind.MALL: 0.0065,
    VenueKind.SHOPPING_CENTER: 0.008,
    VenueKind.RAILWAY_STATION: 0.0105,
    VenueKind.CANTEEN: 0.0015,
    VenueKind.SUBWAY_PASSAGE: 0.0005,
}
"""Base probability that a random urbanite has a venue's own open Wi-Fi
in their PNL (many people have been to the airport; few remember one
particular subway passage)."""


@dataclass(frozen=True)
class PublicSsid:
    """One entry of the public pool PNL synthesis draws from."""

    ssid: str
    adoption: float
    origin: str  # "chain" or "venue:<name>"


@dataclass(frozen=True)
class CityConfig:
    """Knobs of city generation (defaults reproduce the paper scenarios)."""

    bounds: Rect = field(default_factory=lambda: Rect(0, 0, 30_000, 30_000))
    n_shops: int = 9_000
    n_residential: int = 18_000
    photos_per_crowd_unit: float = 40.0
    background_photos: int = 30_000
    heat_cell_size: float = 100.0
    adoption_scale: float = ADOPTION_SCALE


class City:
    """A fully generated synthetic city.

    ``photos`` is the geotagged-photo corpus as an ``(n, 2)`` array of
    x/y coordinates in metres; ``heatmap`` is its gridded photo count.
    """

    def __init__(
        self,
        config: CityConfig,
        venues: List[Venue],
        chains: List[ChainSpec],
        aps: List[AccessPoint],
        photos: np.ndarray,
        heatmap: HeatMap,
    ):
        self.config = config
        self.venues = venues
        self.chains = chains
        self.aps = aps
        self.photos = photos
        self.heatmap = heatmap
        self.public_pool = self._build_public_pool()
        self.open_shop_ssids = [
            ap.ssid for ap in aps if ap.source == "shop" and ap.is_free
        ]

    def _build_public_pool(self) -> List[PublicSsid]:
        scale = self.config.adoption_scale
        pool: List[PublicSsid] = []
        for spec in self.chains:
            if not spec.security.is_open:
                continue
            pool.append(
                PublicSsid(spec.name, scaled_adoption(spec, scale), "chain")
            )
        for venue in self.venues:
            base = _VENUE_ADOPTION.get(venue.kind, 0.0)
            if base <= 0 or not venue.free_wifi:
                continue
            for ssid in venue.wifi_ssids:
                pool.append(
                    PublicSsid(ssid, min(1.0, base * scale), f"venue:{venue.name}")
                )
        return pool

    def venue(self, name: str) -> Venue:
        """Look up a venue by exact name."""
        for v in self.venues:
            if v.name == name:
                return v
        raise KeyError("no venue named %r" % name)

    def secured_public_ssids(self) -> List[str]:
        """Secured chain SSIDs (present in PNLs but never exploitable)."""
        return [c.name for c in self.chains if not c.security.is_open]

    def expected_adoption_mass(self) -> float:
        """Sum of adoption probabilities over the public pool.

        A quick calibration diagnostic: roughly the expected number of
        open public networks in a random PNL.
        """
        return sum(p.adoption for p in self.public_pool)


def build_city(
    config: Optional[CityConfig] = None,
    rng: Optional[np.random.Generator] = None,
    venues: Optional[Sequence[Venue]] = None,
    chains: Optional[Sequence[ChainSpec]] = None,
) -> City:
    """Generate one deterministic city instance."""
    config = config if config is not None else CityConfig()
    rng = rng if rng is not None else np.random.default_rng(0)
    venue_list = list(venues) if venues is not None else default_venues()
    chain_list = list(chains) if chains is not None else default_chain_catalog()
    aps = deploy_access_points(
        config.bounds,
        venue_list,
        chain_list,
        n_shops=config.n_shops,
        n_residential=config.n_residential,
        rng=rng,
    )
    photos = generate_photos(
        config.bounds,
        venue_list,
        rng,
        photos_per_crowd_unit=config.photos_per_crowd_unit,
        background_photos=config.background_photos,
    )
    heatmap = HeatMap.from_photos(config.bounds, photos, config.heat_cell_size)
    return City(config, venue_list, chain_list, aps, photos, heatmap)
