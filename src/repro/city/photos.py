"""Synthetic geotagged photos.

The paper estimates crowd density from photos people posted with
geotags; we generate the equivalent: each venue emits a Poisson number of
photos proportional to its crowd level (placed inside the venue — inside
the terminal for the airport), plus a diffuse background of street-level
photos over the central district and a sparse city-wide scatter.  Only a
photo's location matters to the heat map, so the corpus is one ``(n, 2)``
array of x/y coordinates.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.city.aps import terminal_region
from repro.city.venues import Venue, VenueKind
from repro.geo.region import Rect


def _sample_points(region: Rect, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` uniform points in ``region`` as an ``(count, 2)`` array.

    The same bits as ``count`` calls of :meth:`Rect.sample`: one
    ``random()`` draw per coordinate, x before y, scaled as numpy's
    ``uniform`` scales them.
    """
    u = rng.random((count, 2))
    low = np.array([region.x0, region.y0], dtype=float)
    span = np.array([region.x1 - region.x0, region.y1 - region.y0], dtype=float)
    return low + span * u


def generate_photos(
    bounds: Rect,
    venues: Sequence[Venue],
    rng: np.random.Generator,
    photos_per_crowd_unit: float = 40.0,
    background_photos: int = 30_000,
) -> np.ndarray:
    """Generate the photo corpus for one city instance: an ``(n, 2)``
    array of photo coordinates in metres."""
    if photos_per_crowd_unit <= 0:
        raise ValueError("photos_per_crowd_unit must be positive")
    parts: List[np.ndarray] = []
    for venue in venues:
        mean = venue.crowd_level * photos_per_crowd_unit
        count = int(rng.poisson(mean))
        region = venue.region
        if venue.kind is VenueKind.AIRPORT:
            # Travellers photograph the terminal, not the tarmac.
            region = terminal_region(region)
        parts.append(_sample_points(region, count, rng))
    # Street-level background over the central district.
    central = Rect(
        bounds.x0 + bounds.width * 0.30,
        bounds.y0 + bounds.height * 0.30,
        bounds.x0 + bounds.width * 0.72,
        bounds.y0 + bounds.height * 0.62,
    )
    parts.append(_sample_points(central, int(background_photos * 0.8), rng))
    parts.append(_sample_points(bounds, int(background_photos * 0.2), rng))
    return np.concatenate(parts)
