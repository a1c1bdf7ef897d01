"""Synthetic city: districts, venues, chain stores, APs, photos, heat map.

Replaces the paper's Hong Kong: a flat-plane city whose venues generate
both the crowds (via :mod:`repro.population` / :mod:`repro.mobility`) and
the observable side-channels the attack consumes — the WiGLE-like AP
registry and the geotagged-photo heat map.  Because one generative model
produces both, the correlations the attack exploits (popular networks are
in many PNLs *and* rank high in WiGLE-by-heat) hold by construction, as
they do in a real city.
"""

from repro.city.aps import AccessPoint, deploy_access_points
from repro.city.chains import ChainSpec, default_chain_catalog
from repro.city.heatmap import HeatMap
from repro.city.model import City, CityConfig, build_city
from repro.city.photos import generate_photos
from repro.city.venues import Venue, VenueKind, default_venues

__all__ = [
    "AccessPoint",
    "deploy_access_points",
    "ChainSpec",
    "default_chain_catalog",
    "HeatMap",
    "City",
    "CityConfig",
    "build_city",
    "generate_photos",
    "Venue",
    "VenueKind",
    "default_venues",
]
