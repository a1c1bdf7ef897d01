"""Photo-density heat map (the paper's Fig. 4 artefact).

Photos are binned into a uniform grid; the heat of a point is the photo
count of its cell.  The heat *value of an SSID* — the quantity Table IV
ranks by — is the sum of cell heats over all the SSID's AP locations, and
is computed by :mod:`repro.wigle.queries` / :mod:`repro.core.seeding`
from this map.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.geo.point import Point
from repro.geo.region import Rect


class HeatMap:
    """Gridded photo counts over the city bounds."""

    def __init__(self, bounds: Rect, cell_size: float = 100.0):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive, got %r" % cell_size)
        self.bounds = bounds
        self.cell_size = cell_size
        self.nx = max(1, int(np.ceil(bounds.width / cell_size)))
        self.ny = max(1, int(np.ceil(bounds.height / cell_size)))
        self._grid = np.zeros((self.nx, self.ny), dtype=np.int64)
        self.total_photos = 0

    @classmethod
    def from_photos(
        cls, bounds: Rect, photos: np.ndarray, cell_size: float = 100.0
    ) -> "HeatMap":
        """Build a heat map by binning ``photos``, an ``(n, 2)`` array of
        x/y coordinates."""
        hm = cls(bounds, cell_size)
        hm.add_points(photos[:, 0], photos[:, 1])
        return hm

    def _cells(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The grid cell of each point: the one cell rule, clamped to the
        grid so points on or outside the bounds land in an edge cell."""
        ix = np.clip(
            ((xs - self.bounds.x0) // self.cell_size).astype(int), 0, self.nx - 1
        )
        iy = np.clip(
            ((ys - self.bounds.y0) // self.cell_size).astype(int), 0, self.ny - 1
        )
        return ix, iy

    def add_points(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Bin arrays of coordinates into the grid (vectorised)."""
        np.add.at(self._grid, self._cells(xs, ys), 1)
        self.total_photos += len(xs)

    def heat_of(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Photo count of the cell containing each point."""
        return self._grid[self._cells(xs, ys)]

    def heat_at(self, p: Point) -> int:
        """Photo count of the cell containing ``p``."""
        return int(self.heat_of(np.array([p.x]), np.array([p.y]))[0])

    def hottest_cells(self, count: int) -> List[Tuple[Point, int]]:
        """The ``count`` hottest cells as (cell centre, heat) pairs."""
        if count <= 0:
            return []
        flat = self._grid.ravel()
        count = min(count, flat.size)
        idx = np.argpartition(flat, -count)[-count:]
        idx = idx[np.argsort(flat[idx])[::-1]]
        out: List[Tuple[Point, int]] = []
        for i in idx:
            ix, iy = divmod(int(i), self.ny)
            center = Point(
                self.bounds.x0 + (ix + 0.5) * self.cell_size,
                self.bounds.y0 + (iy + 0.5) * self.cell_size,
            )
            out.append((center, int(flat[i])))
        return out

    def render(self, cols: int = 60, rows: int = 30) -> str:
        """Coarse ASCII rendering (the textual stand-in for Fig. 4)."""
        shades = " .:-=+*#%@"
        block_x = max(1, self.nx // cols)
        block_y = max(1, self.ny // rows)
        # Sum grid cells into display blocks.
        trimmed = self._grid[
            : (self.nx // block_x) * block_x, : (self.ny // block_y) * block_y
        ]
        blocks = trimmed.reshape(
            trimmed.shape[0] // block_x, block_x, trimmed.shape[1] // block_y, block_y
        ).sum(axis=(1, 3))
        peak = blocks.max() if blocks.size else 0
        lines = []
        for iy in range(blocks.shape[1] - 1, -1, -1):  # north at the top
            row = []
            for ix in range(blocks.shape[0]):
                v = blocks[ix, iy]
                level = 0 if peak == 0 else int((len(shades) - 1) * (v / peak) ** 0.35)
                row.append(shades[level])
            lines.append("".join(row))
        return "\n".join(lines)
