"""The district grid of the sharded city.

:class:`DistrictPartition` cuts the square city into fixed districts and
groups them into shards (see :mod:`repro.sim.shards`).
"""

from __future__ import annotations

from typing import Tuple


class DistrictPartition:
    """Fixed district grid over a square city, grouped into shards.

    Districts are ``district_m`` squares cut along axis-aligned seams
    (``ix = x // district_m``), numbered row-major; they are a property
    of the *workload*, so district ids — unlike shard ids — are
    identical at every shard count and safe to use in cross-shard
    handoff sort keys.  Shards group whole district
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
