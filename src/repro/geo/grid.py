"""Uniform spatial hash grid for nearest-neighbour and range queries.

:class:`SpatialGrid` is used by the WiGLE registry ("100 SSIDs nearest
the attack site") and by the heat map ("heat value at an AP's
location").  A uniform grid beats a k-d tree here: items are inserted
once and queried with small radii.  :class:`DistrictPartition` cuts the
sharded city along the same seam.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Generic, Iterable, List, Tuple, TypeVar

from repro.geo.point import Point

T = TypeVar("T")


class DistrictPartition:
    """Fixed district grid over a square city, grouped into shards.

    Districts are ``district_m`` squares cut along the same axis-aligned
    seam as :class:`SpatialGrid` (``ix = x // cell``), numbered
    row-major; they are a property of the *workload*, so district ids —
    unlike shard ids — are identical at every shard count and safe to
    use in cross-shard handoff sort keys.  Shards group whole district
    *columns* into contiguous x-stripes, so a shard's territory is a
    single interval ``[x_lo, x_hi)`` and candidate pruning needs only a
    1-D inflation.
    """

    __slots__ = ("size_m", "district_m", "nx", "ny")

    def __init__(self, size_m: float, district_m: float):
        if size_m <= 0:
            raise ValueError("size_m must be positive, got %r" % size_m)
        if district_m <= 0:
            raise ValueError("district_m must be positive, got %r" % district_m)
        self.size_m = float(size_m)
        self.district_m = float(district_m)
        self.nx = max(1, int(self.size_m // self.district_m))
        self.ny = self.nx

    @property
    def districts(self) -> int:
        """Total number of districts in the grid."""
        return self.nx * self.ny

    def column_of(self, x: float) -> int:
        """District column index of coordinate ``x`` (clamped to city)."""
        ix = int(x // self.district_m)
        if ix < 0:
            return 0
        if ix >= self.nx:
            return self.nx - 1
        return ix

    def district_of(self, x: float, y: float) -> int:
        """Row-major district id of a point (clamped to the city square)."""
        iy = int(y // self.district_m)
        if iy < 0:
            iy = 0
        elif iy >= self.ny:
            iy = self.ny - 1
        return iy * self.nx + self.column_of(x)

    def shard_of_column(self, ix: int, shards: int) -> int:
        """Shard owning district column ``ix`` when using ``shards`` stripes."""
        if shards < 1:
            raise ValueError("shards must be >= 1, got %r" % shards)
        if shards == 1:
            return 0
        shard = ix * shards // self.nx
        return min(shards - 1, max(0, shard))

    def shard_of_district(self, district: int, shards: int) -> int:
        """Shard owning one district id."""
        return self.shard_of_column(district % self.nx, shards)

    def shard_of_point(self, x: float, y: float, shards: int) -> int:
        """Shard owning the district containing ``(x, y)``."""
        return self.shard_of_column(self.column_of(x), shards)

    def stripe_bounds(self, shard: int, shards: int) -> Tuple[float, float]:
        """The ``[x_lo, x_hi)`` territory of one shard stripe in metres."""
        columns = [
            ix for ix in range(self.nx) if self.shard_of_column(ix, shards) == shard
        ]
        if not columns:
            return (0.0, 0.0)
        lo = columns[0] * self.district_m
        hi = (columns[-1] + 1) * self.district_m
        if columns[-1] == self.nx - 1:
            hi = max(hi, self.size_m)  # last column absorbs the remainder
        return (lo, hi)


class SpatialGrid(Generic[T]):
    """Bucket items by ``cell_size`` squares and answer range queries."""

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive, got %r" % cell_size)
        self.cell_size = cell_size
        self._cells: Dict[Tuple[int, int], List[Tuple[Point, T]]] = defaultdict(list)
        self._count = 0

    def _key(self, p: Point) -> Tuple[int, int]:
        return (int(p.x // self.cell_size), int(p.y // self.cell_size))

    def insert(self, p: Point, item: T) -> None:
        """Add ``item`` at location ``p``."""
        self._cells[self._key(p)].append((p, item))
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def within(self, center: Point, radius: float) -> List[Tuple[Point, T]]:
        """All (point, item) pairs within ``radius`` metres of ``center``."""
        if radius < 0:
            raise ValueError("radius must be non-negative, got %r" % radius)
        cx, cy = self._key(center)
        reach = int(radius // self.cell_size) + 1
        out: List[Tuple[Point, T]] = []
        r2 = radius * radius
        for ix in range(cx - reach, cx + reach + 1):
            for iy in range(cy - reach, cy + reach + 1):
                for p, item in self._cells.get((ix, iy), ()):
                    dx = p.x - center.x
                    dy = p.y - center.y
                    if dx * dx + dy * dy <= r2:
                        out.append((p, item))
        return out

    def nearest(self, center: Point, count: int) -> List[Tuple[Point, T]]:
        """The ``count`` items nearest ``center`` (distance ascending).

        Expands the search radius geometrically until enough items are
        found or the whole grid has been scanned.
        """
        if count <= 0:
            return []
        if self._count == 0:
            return []
        radius = self.cell_size
        while True:
            hits = self.within(center, radius)
            if len(hits) >= count or len(hits) == self._count:
                hits.sort(key=lambda pair: pair[0].distance_to(center))
                return hits[:count]
            radius *= 2.0

    def items(self) -> Iterable[Tuple[Point, T]]:
        """Iterate over every stored (point, item) pair."""
        for bucket in self._cells.values():
            yield from bucket
