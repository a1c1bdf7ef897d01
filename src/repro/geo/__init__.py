"""Planar geometry for the synthetic city.

Coordinates are metres on a flat plane — at city scale (tens of km) the
flat-earth error is irrelevant to every query the attack makes (nearest-N
APs, point-in-venue, radio range).
"""

from repro.geo.point import Point, distance
from repro.geo.region import Rect

__all__ = ["Point", "distance", "Rect"]
