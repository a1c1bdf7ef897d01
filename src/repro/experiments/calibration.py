"""Calibrated per-venue workload profiles.

Client volumes are set to the paper's observations: ~620-690 clients per
30-minute canteen test, ~1350 per 30-minute passage test, and the Fig. 5
hourly series with rush-hour peaks (passage/station), mealtime peaks
(canteen) and a midday/evening hump (shopping centre).

Rates are *people per minute*; the arrival process converts to groups
using the slot's group-size distribution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.city.model import City, build_city
from repro.mobility.arrivals import HourlyRates

GROUP_PROBS_BASE: Tuple[float, ...] = (0.62, 0.24, 0.10, 0.04)
"""P(group size = 1..4) off-peak."""

GROUP_PROBS_RUSH: Tuple[float, ...] = (0.48, 0.30, 0.15, 0.07)
"""P(group size = 1..4) during rush hours — the paper observes more
people walking in groups then."""


def mean_group_size(probs: Sequence[float]) -> float:
    """Expected group size for a size-probability vector."""
    total = sum(probs)
    return sum((i + 1) * p for i, p in enumerate(probs)) / total


@dataclass(frozen=True)
class VenueProfile:
    """Workload description of one attack venue."""

    venue_name: str
    mobility: str
    """``static`` | ``corridor`` | ``hybrid``."""

    people_per_min_30min_test: float
    """Arrival rate used by the Section III 30-minute experiments."""

    hourly_people_per_min: HourlyRates
    """Fig. 5 rate per 8am-8pm slot."""

    rush_slots: Tuple[int, ...] = ()
    """Slot indices treated as rush hours (group mix shifts)."""

    dwell_mean: float = 900.0
    """Mean dwell for static visitors (seconds)."""

    hybrid_static_share: float = 0.35
    """For hybrid venues: share of groups that settle rather than pass
    through (station waiting areas hold more sitters than a mall)."""

    quick_share: float = 0.45
    """For static venues: share of grab-and-go short-dwellers."""


_PROFILES = {
    "canteen": VenueProfile(
        venue_name="University Canteen",
        mobility="static",
        people_per_min_30min_test=21.5,
        # Mealtime peaks: breakfast 8-9, lunch 12-2, dinner 6-8.
        hourly_people_per_min=HourlyRates(
            (15.0, 6.0, 5.0, 9.0, 22.0, 20.0, 8.0, 5.0, 5.0, 7.0, 18.0, 14.0)
        ),
        rush_slots=(0, 4, 5, 10, 11),
        dwell_mean=900.0,
        quick_share=0.52,
    ),
    "passage": VenueProfile(
        venue_name="Central Subway Passage",
        mobility="corridor",
        people_per_min_30min_test=52.0,
        # Commuter rush at 8-9am and 6-7pm.
        hourly_people_per_min=HourlyRates(
            (50.0, 33.0, 20.0, 18.0, 21.0, 19.0, 16.0, 18.0, 20.0, 28.0, 47.0, 35.0)
        ),
        rush_slots=(0, 10),
    ),
    "shopping_center": VenueProfile(
        venue_name="Harbour Shopping Center",
        mobility="hybrid",
        people_per_min_30min_test=25.0,
        # Builds through midday, peaks in the evening.
        hourly_people_per_min=HourlyRates(
            (8.0, 10.0, 13.0, 17.0, 21.0, 22.0, 20.0, 19.0, 21.0, 24.0, 26.0, 22.0)
        ),
        rush_slots=(9, 10),
        dwell_mean=300.0,
        hybrid_static_share=0.08,
    ),
    "railway_station": VenueProfile(
        venue_name="City Railway Station",
        mobility="hybrid",
        people_per_min_30min_test=35.0,
        # Commuter peaks mirroring the passage, on a bigger base.
        hourly_people_per_min=HourlyRates(
            (38.0, 26.0, 20.0, 18.0, 22.0, 20.0, 18.0, 19.0, 22.0, 28.0, 36.0, 28.0)
        ),
        rush_slots=(0, 10),
        dwell_mean=420.0,
        hybrid_static_share=0.45,
    ),
}


def venue_profile(key: str) -> VenueProfile:
    """Profile by short key: canteen / passage / shopping_center /
    railway_station."""
    try:
        return _PROFILES[key]
    except KeyError:
        raise KeyError(
            "unknown venue key %r (have: %s)" % (key, ", ".join(sorted(_PROFILES)))
        ) from None


def all_profiles() -> dict:
    """All four venue profiles keyed by short name."""
    return dict(_PROFILES)


def default_city(seed: int = 42) -> City:
    """The shared city instance used by tests/benches (cached per seed
    value, so ``default_city()`` and ``default_city(42)`` are one city —
    generation is ~0.6 s and the city is immutable in practice)."""
    return _city(seed)


@functools.lru_cache(maxsize=None)
def _city(seed: int) -> City:
    return build_city(rng=np.random.default_rng(seed))
