"""WiGLE-like wardriving registry.

A queryable snapshot of every AP in the synthetic city, answering the
two query shapes City-Hunter issues: the N free networks nearest the
attack site, and city-wide free SSIDs ranked by AP count or by photo
heat value.
"""

from repro.wigle.database import WigleDatabase
from repro.wigle.queries import ssid_heat_values, top_ssids_by_count, top_ssids_by_heat

__all__ = [
    "WigleDatabase",
    "ssid_heat_values",
    "top_ssids_by_count",
    "top_ssids_by_heat",
]
