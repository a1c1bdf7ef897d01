"""The queryable registry."""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.city.aps import AccessPoint
from repro.dot11.ssid import validate_ssid
from repro.geo.point import Point


class WigleDatabase:
    """All wardriven APs of the city, kept as the attack queries them.

    City-Hunter asks the registry two things (Section IV-B): the free
    SSIDs nearest the attack site, and the city-wide free SSIDs ranked
    by AP count or by photo heat.  Both read only the free networks, so
    one pass over the APs keeps the free records as columns (SSID code,
    x, y) and counts every AP.  A record is what wardriving observes —
    SSID, open or not, location — never a provenance tag.  Free SSIDs
    are numbered in first-free-record order and each is validated once,
    as it enters the registry.

    The registry is immutable once built: the columns are read-only
    arrays and every query returns a fresh container, so one database
    instance can safely back many experiment runs (the experiment runner
    caches and shares it — see ``repro.experiments.runner.shared_wigle``)
    without any run observing another run's mutations.
    """

    def __init__(self, aps: Iterable[AccessPoint]):
        free_codes: Dict[str, int] = {}
        codes: List[int] = []
        xs: List[float] = []
        ys: List[float] = []
        total = 0
        for ap in aps:
            total += 1
            if not ap.is_free:
                continue
            code = free_codes.get(ap.ssid)
            if code is None:
                code = free_codes[validate_ssid(ap.ssid)] = len(free_codes)
            codes.append(code)
            x, y = ap.location
            xs.append(x)
            ys.append(y)
        self._len = total
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

    def __len__(self) -> int:
        """Every AP listed, free or secured."""
        return self._len

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
        "100 SSIDs near to the attacker" seeding query.  Equidistant APs
        rank in record order.
        """
        n = len(self._free_codes)
        if count <= 0 or n == 0:
            return []
        dist = np.hypot(self._free_xs - location.x, self._free_ys - location.y)
        out: List[str] = []
        seen = set()
        # Over-fetch APs since several may share one SSID.
        fetch = max(count * 4, 64)
        while True:
            if fetch < n:
                # Every record within the fetch-th smallest distance, so
                # ties at the cut keep their record order too.
                cut = np.partition(dist, fetch - 1)[fetch - 1]
                near = np.flatnonzero(dist <= cut)
            else:
                near = np.arange(n)
            near = near[np.argsort(dist[near], kind="stable")]
            for code in self._free_codes[near].tolist():
                if code not in seen:
                    seen.add(code)
                    out.append(self._free_ssids[code])
                    if len(out) == count:
                        return out
            if fetch >= n:
                return out
            fetch *= 2
