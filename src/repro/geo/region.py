"""Axis-aligned rectangular regions (districts, venues, corridors)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.point import Point


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x0, x1] x [y0, y1] in metres."""

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("degenerate rect: %r" % (self,))

    @property
    def width(self) -> float:
        """Extent along x in metres."""
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        """Extent along y in metres."""
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        """Area in square metres."""
        return self.width * self.height

    @property
    def center(self) -> Point:
        """Geometric centre."""
        return Point((self.x0 + self.x1) / 2.0, (self.y0 + self.y1) / 2.0)

    def contains(self, p: Point) -> bool:
        """Whether ``p`` lies inside (edges inclusive)."""
        return self.x0 <= p.x <= self.x1 and self.y0 <= p.y <= self.y1

    def sample(self, rng: np.random.Generator) -> Point:
        """A uniformly random point inside the rectangle.

        Bit-identical to ``Point(rng.uniform(x0, x1), rng.uniform(y0, y1))``:
        numpy's scalar ``uniform`` is ``low + (high - low) * u`` on one
        ``random()`` draw, so two draws in one call give the same point.
        """
        u, v = rng.random(2).tolist()
        return Point(
            self.x0 + (self.x1 - self.x0) * u,
            self.y0 + (self.y1 - self.y0) * v,
        )

    def expanded(self, margin: float) -> "Rect":
        """A rect grown by ``margin`` metres on every side."""
        return Rect(
            self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin
        )
