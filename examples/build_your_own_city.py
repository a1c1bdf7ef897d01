#!/usr/bin/env python
"""Using the library's layers directly: build a custom city and attack it.

Shows the public API below the experiment harness: define venues and
chains, generate a city, derive the WiGLE registry and heat map, seed a
City-Hunter decision kernel, and inspect what the selection step would
send — without running a full simulation.

Run:  python examples/build_your_own_city.py
"""

import numpy as np

from repro.city.chains import ChainSpec, PlacementMix
from repro.city.model import CityConfig, build_city
from repro.city.venues import Venue, VenueKind
from repro.core.config import CityHunterConfig
from repro.core.kernel import HunterKernel
from repro.geo.region import Rect
from repro.wigle.database import WigleDatabase
from repro.wigle.queries import top_ssids_by_count, top_ssids_by_heat


def main() -> None:
    # A toy town: one mall, one plaza, two chains.
    venues = [
        Venue(
            name="Tiny Mall",
            kind=VenueKind.MALL,
            region=Rect(4_000, 4_000, 4_150, 4_120),
            crowd_level=60.0,
            wifi_ssids=("Tiny Mall Free WiFi",),
            ap_count=4,
        ),
        Venue(
            name="Old Town Plaza",
            kind=VenueKind.SHOPPING_CENTER,
            region=Rect(6_000, 5_500, 6_200, 5_650),
            crowd_level=30.0,
            local_affinity=0.04,
            wifi_ssids=("Plaza WiFi",),
            ap_count=2,
        ),
        Venue(
            name="Suburbs",
            kind=VenueKind.RESIDENTIAL,
            region=Rect(1_000, 1_000, 9_000, 3_000),
            crowd_level=5.0,
        ),
    ]
    chains = [
        ChainSpec("Corner Cafe WiFi", 80,
                  PlacementMix(hot=0.2, street=0.8), adoption=0.02),
        ChainSpec("BigTelecom Hotspot", 300,
                  PlacementMix(street=0.5, residential=0.5), adoption=0.03),
    ]
    config = CityConfig(
        bounds=Rect(0, 0, 10_000, 10_000),
        n_shops=800,
        n_residential=2_000,
        background_photos=5_000,
    )
    city = build_city(config, np.random.default_rng(1), venues=venues,
                      chains=chains)
    print(f"built a toy city with {len(city.aps)} APs "
          f"and {len(city.photos)} photos")

    wigle = WigleDatabase(city.aps)
    print("\ntop-3 by AP count:", top_ssids_by_count(wigle, 3))
    print("top-3 by heat   :", [
        (s, int(h)) for s, h in top_ssids_by_heat(wigle, city.heatmap, 3)
    ])

    # Seed a City-Hunter kernel at the plaza and preview a burst.
    plaza = city.venue("Old Town Plaza")
    hunter_config = CityHunterConfig(n_popular=50, n_nearby=20)
    kernel = HunterKernel.seeded(
        wigle, city.heatmap, plaza.region.center, hunter_config
    )
    print(f"\nseeded database: {len(kernel.db)} SSIDs")

    burst = kernel.select("02:00:00:00:00:01", now=0.0)
    print("first response burst a broadcast prober would receive:")
    for ssid, _origin, bucket in burst[:10]:
        print(f"  [{bucket:>8s}] {ssid}")
    print(f"  ... {len(burst)} SSIDs total")


if __name__ == "__main__":
    main()
