"""The queryable registry."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.city.aps import AccessPoint
from repro.geo.grid import SpatialGrid
from repro.geo.point import Point
from repro.wigle.records import WigleRecord


class WigleDatabase:
    """All wardriven APs of the city, indexed for the attack's queries.

    The registry is immutable once built: the record set is stored as a
    tuple and every query returns a fresh container, so one database
    instance can safely back many experiment runs (the experiment runner
    caches and shares it — see ``repro.experiments.runner.shared_wigle``)
    without any run observing another run's mutations.

    Because it never changes, the city-wide seeding inputs are computed
    once, in the pass that indexes the records: the free-SSID count
    ranking, and the free records as columns (SSID code, x, y) that
    :func:`repro.wigle.queries.ssid_heat_values` bins against a heat map.
    Free SSIDs are numbered in first-free-record order.
    """

    def __init__(self, records: Iterable[WigleRecord], grid_cell: float = 250.0):
        self._records: Tuple[WigleRecord, ...] = tuple(records)
        self._grid: SpatialGrid[WigleRecord] = SpatialGrid(grid_cell)
        self._by_ssid: Dict[str, List[WigleRecord]] = defaultdict(list)
        free_codes: Dict[str, int] = {}
        codes: List[int] = []
        xs: List[float] = []
        ys: List[float] = []
        for rec in self._records:
            self._grid.insert(rec.location, rec)
            self._by_ssid[rec.ssid].append(rec)
            if rec.free:
                codes.append(free_codes.setdefault(rec.ssid, len(free_codes)))
                xs.append(rec.location.x)
                ys.append(rec.location.y)
        self._free_ssids: Tuple[str, ...] = tuple(free_codes)
        self._free_codes = np.array(codes, dtype=np.intp)
        self._free_xs = np.array(xs, dtype=float)
        self._free_ys = np.array(ys, dtype=float)
        for column in (self._free_codes, self._free_xs, self._free_ys):
            column.setflags(write=False)
        counts = np.bincount(self._free_codes, minlength=len(self._free_ssids))
        # A stable sort on -count keeps ties in first-free-record order:
        # exactly the order Counter.most_common gives.
        order = np.argsort(-counts, kind="stable")
        self._count_ranking: Tuple[Tuple[str, int], ...] = tuple(
            (self._free_ssids[code], count)
            for code, count in zip(order.tolist(), counts[order].tolist())
        )

    @classmethod
    def from_access_points(cls, aps: Sequence[AccessPoint]) -> "WigleDatabase":
        """Build the registry from the city's deployed APs."""
        return cls(WigleRecord.from_access_point(ap) for ap in aps)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> Tuple[WigleRecord, ...]:
        """Every record, as an immutable tuple."""
        return self._records

    def ssids(self) -> List[str]:
        """All distinct SSIDs."""
        return list(self._by_ssid)

    def aps_of(self, ssid: str) -> List[WigleRecord]:
        """Every AP record carrying ``ssid`` (empty list when unknown)."""
        return list(self._by_ssid.get(ssid, ()))

    def free_count_ranking(self) -> Tuple[Tuple[str, int], ...]:
        """``(ssid, AP count)`` per SSID, counting free networks only.

        Only SSIDs whose networks are (at least somewhere) free are
        counted, mirroring City-Hunter's "only SSIDs belong to free APs
        from WiGLE are selected".  Count descending, ties in
        first-free-record order: the order ``Counter.most_common`` gives
        a counter filled in record order.
        """
        return self._count_ranking

    def free_columns(
        self,
    ) -> Tuple[Tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
        """The free records as columns: ``(ssids, codes, xs, ys)``.

        ``ssids`` lists each free SSID once, in first-free-record order;
        record ``i`` carries ``ssids[codes[i]]`` at ``(xs[i], ys[i])``.
        The arrays are read-only and shared by every caller.
        """
        return self._free_ssids, self._free_codes, self._free_xs, self._free_ys

    def nearest_free_ssids(self, location: Point, count: int) -> List[str]:
        """The ``count`` distinct free SSIDs nearest ``location``.

        Ordered by the distance of each SSID's nearest AP — the paper's
        "100 SSIDs near to the attacker" seeding query.
        """
        if count <= 0:
            return []
        out: List[str] = []
        seen = set()
        # Over-fetch APs since several may share one SSID.
        fetch = max(count * 4, 64)
        while True:
            hits = self._grid.nearest(location, fetch)
            for point, rec in hits:
                if rec.free and rec.ssid not in seen:
                    seen.add(rec.ssid)
                    out.append(rec.ssid)
                    if len(out) == count:
                        return out
            if len(hits) >= len(self._records):
                return out
            fetch *= 2
