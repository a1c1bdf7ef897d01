"""Tests for the WiGLE-like registry (repro.wigle)."""

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from repro.city.aps import AccessPoint
from repro.city.heatmap import HeatMap
from repro.dot11.capabilities import Security
from repro.geo.point import Point
from repro.geo.region import Rect
from repro.wigle.database import WigleDatabase
from repro.wigle.queries import ssid_heat_values, top_ssids_by_count, top_ssids_by_heat


def _small_db():
    aps = [
        AccessPoint("Chain", Security.OPEN, Point(0, 0), "chain:Chain"),
        AccessPoint("Chain", Security.OPEN, Point(100, 0), "chain:Chain"),
        AccessPoint("Chain", Security.OPEN, Point(200, 0), "chain:Chain"),
        AccessPoint("Cafe", Security.OPEN, Point(10, 0), "shop"),
        AccessPoint("Secret", Security.WPA2_PSK, Point(5, 0), "residential"),
        AccessPoint("Far", Security.OPEN, Point(5000, 5000), "shop"),
    ]
    return WigleDatabase(aps)


def _ap(ssid, x, y, free=True):
    security = Security.OPEN if free else Security.WPA2_PSK
    return AccessPoint(ssid, security, Point(x, y), "shop")


def _tied_aps():
    """Count ties, an SSID whose first record is secured, and APs outside
    the heat map's bounds."""
    return [
        _ap("Tie-B", 5, 5, free=False),
        _ap("Tie-A", 120, 40),
        _ap("Tie-B", 120, 40),
        _ap("Solo", 999, 999),
        _ap("Tie-A", -300, 50),
        _ap("Tie-B", 480, 2_000),
        _ap("Locked", 120, 40, free=False),
        _ap("Tie-C", 100, 100),
        _ap("Tie-C", 350, 250),
        _ap("Trio", 0, 0),
        _ap("Trio", 0, 0),
        _ap("Trio", 499.5, 499.5),
    ]


def _tied_heatmap():
    hm = HeatMap(Rect(0, 0, 500, 500), cell_size=100.0)
    rng = np.random.default_rng(3)
    xy = rng.uniform(-100, 600, size=(400, 2))
    hm.add_points(xy[:, 0], xy[:, 1])
    return hm


def _reference_counts(aps):
    """One ``Counter`` over the free APs, in record order."""
    counts = Counter()
    for ap in aps:
        if ap.is_free:
            counts[ap.ssid] += 1
    return counts


def _reference_heats(aps, heatmap):
    """Per-AP heat sums through the scalar cell rule:
    ``floor((coordinate - origin) / cell)``, clamped into the grid."""
    grid, bounds, cell = heatmap._grid, heatmap.bounds, heatmap.cell_size
    heats = {}
    for ap in aps:
        if not ap.is_free:
            continue
        ix = min(max(int((ap.location.x - bounds.x0) // cell), 0), heatmap.nx - 1)
        iy = min(max(int((ap.location.y - bounds.y0) // cell), 0), heatmap.ny - 1)
        heats[ap.ssid] = heats.get(ap.ssid, 0.0) + int(grid[ix, iy])
    return heats


def _reference_ranking(free, location):
    """Every SSID of ``free`` (``(ssid, x, y)`` per free AP, in record
    order), ranked by the ``math.hypot`` distance of its nearest AP; a
    stable sort, so equidistant APs keep record order."""
    cx, cy = location
    dist = [math.hypot(x - cx, y - cy) for _, x, y in free]
    order = sorted(range(len(free)), key=dist.__getitem__)
    return list(dict.fromkeys([free[i][0] for i in order]))


def _free_rows(aps):
    return [(ap.ssid, ap.location.x, ap.location.y) for ap in aps if ap.is_free]


class TestRecords:
    def test_projection_hides_provenance(self):
        ap = AccessPoint("X", Security.OPEN, Point(1, 2), "chain:X")
        ssids, codes, xs, ys = WigleDatabase([ap]).free_columns()
        assert ssids == ("X",)
        assert (codes.tolist(), xs.tolist(), ys.tolist()) == ([0], [1.0], [2.0])

    def test_secured_marked_not_free(self):
        ap = AccessPoint("Y", Security.WPA2_PSK, Point(0, 0), "shop")
        db = WigleDatabase([ap])
        assert len(db) == 1
        assert db.free_columns()[0] == ()
        assert db.free_count_ranking() == ()
        assert db.nearest_free_ssids(Point(0, 0), 1) == []

    def test_each_free_ssid_validated_once(self, monkeypatch):
        import repro.wigle.database as database

        checked = []
        monkeypatch.setattr(
            database, "validate_ssid", lambda s: checked.append(s) or s
        )
        WigleDatabase(_tied_aps())
        assert checked == ["Tie-A", "Tie-B", "Solo", "Tie-C", "Trio"]

    def test_invalid_free_ssid_rejected(self):
        # AccessPoint validates its own SSID; a record of any other type
        # is checked as it enters the registry.
        bad = SimpleNamespace(ssid="x" * 33, is_free=True, location=Point(0, 0))
        with pytest.raises(ValueError, match="32 bytes"):
            WigleDatabase([bad])


class TestDatabase:
    def test_len_counts_aps_not_ssids(self):
        assert len(_small_db()) == 6

    def test_free_counts_exclude_secured(self):
        counts = dict(_small_db().free_count_ranking())
        assert counts["Chain"] == 3
        assert "Secret" not in counts

    def test_nearest_free_distinct_and_ordered(self):
        db = _small_db()
        near = db.nearest_free_ssids(Point(0, 0), 3)
        assert near == ["Chain", "Cafe", "Far"]

    def test_nearest_skips_secured(self):
        db = _small_db()
        assert "Secret" not in db.nearest_free_ssids(Point(5, 0), 10)

    def test_nearest_count_larger_than_population(self):
        db = _small_db()
        assert len(db.nearest_free_ssids(Point(0, 0), 50)) == 3  # 3 free SSIDs

    def test_nearest_zero(self):
        assert _small_db().nearest_free_ssids(Point(0, 0), 0) == []


class TestQueries:
    def test_top_by_count(self):
        ranked = top_ssids_by_count(_small_db(), 2)
        assert ranked[0] == ("Chain", 3)

    def test_top_by_count_negative_rejected(self):
        with pytest.raises(ValueError):
            top_ssids_by_count(_small_db(), -1)

    def test_heat_values_sum_over_aps(self, city, wigle):
        heats = ssid_heat_values(wigle, city.heatmap)
        # An SSID's heat is the sum over its APs, so a chain with many
        # APs in hot places must beat a single home router.
        assert heats["Free Public WiFi"] > 10_000

    def test_table4_rankings(self, city, wigle):
        """The headline Table IV reproduction."""
        by_count = [s for s, _ in top_ssids_by_count(wigle, 5)]
        assert by_count == [
            "-Free HKBN Wi-Fi-",
            "7-Eleven Free Wifi",
            "-Circle K Free Wi-Fi-",
            "CSL",
            "CMCC-WEB",
        ]
        by_heat = [s for s, _ in top_ssids_by_heat(wigle, city.heatmap, 5)]
        assert by_heat == [
            "Free Public WiFi",
            "#HKAirport Free WiFi",
            "-Free HKBN Wi-Fi-",
            "FREE 3Y5 AdWiFi",
            "7-Eleven Free Wifi",
        ]

    def test_heat_promotes_airport_over_count_rank(self, city, wigle):
        """#HKAirport ranks poorly by count but 2nd by heat — the
        paper's motivating observation for the heat map."""
        count_rank = [s for s, _ in top_ssids_by_count(wigle, 40)]
        heat_rank = [s for s, _ in top_ssids_by_heat(wigle, city.heatmap, 40)]
        assert count_rank.index("#HKAirport Free WiFi") > 5
        assert heat_rank.index("#HKAirport Free WiFi") == 1

    def test_nearest_at_attack_venue_mostly_unique(self, city, wigle):
        """Urban-canyon effect: the 40 nearest SSIDs around the passage
        are dominated by one-off homes and shops."""
        passage = city.venue("Central Subway Passage")
        near = wigle.nearest_free_ssids(passage.region.center, 40)
        chains = {c.name for c in city.chains}
        assert sum(1 for s in near if s in chains) <= 5


class TestQueriesMatchPerRecordReference:
    """The precomputed ranking and the column-wise heat sums give exactly
    what a walk over every record gives: values, types and order."""

    @staticmethod
    def _check(aps, heatmap):
        db = WigleDatabase(aps)
        counts = _reference_counts(aps)
        for n in (0, 1, 5, 100, 200, len(counts), len(counts) + 7):
            assert top_ssids_by_count(db, n) == counts.most_common(n), n
        assert db.free_count_ranking() == tuple(counts.most_common())
        heats = ssid_heat_values(db, heatmap)
        expected = _reference_heats(aps, heatmap)
        assert list(heats) == list(expected)
        assert [v.hex() for v in heats.values()] == [
            float(v).hex() for v in expected.values()
        ]
        assert all(type(v) is float for v in heats.values())

    def test_default_registry(self, city, wigle):
        self._check(city.aps, city.heatmap)

    def test_small_registry_with_ties(self):
        aps, hm = _tied_aps(), _tied_heatmap()
        self._check(aps, hm)
        db = WigleDatabase(aps)
        assert top_ssids_by_count(db, 10) == [
            ("Trio", 3),
            ("Tie-A", 2),
            ("Tie-B", 2),
            ("Tie-C", 2),
            ("Solo", 1),
        ]
        assert list(ssid_heat_values(db, hm)) == [
            "Tie-A", "Tie-B", "Solo", "Tie-C", "Trio",
        ]

    def test_empty_registry(self):
        db = WigleDatabase([])
        hm = _tied_heatmap()
        assert top_ssids_by_count(db, 5) == []
        assert ssid_heat_values(db, hm) == {}
        assert top_ssids_by_heat(db, hm, 5) == []
        assert db.nearest_free_ssids(Point(0, 0), 5) == []


# Twelve offsets at exactly 300 m: both axes, and the 180/240 triples.
_RING = [(300, 0), (-300, 0), (0, 300), (0, -300)] + [
    (sx * a, sy * b)
    for a, b in ((180, 240), (240, 180))
    for sx in (1, -1)
    for sy in (1, -1)
]


class TestNearestMatchesReference:
    """``nearest_free_ssids`` ranks exactly as a per-AP ``math.hypot``
    sort in record order, cut at each requested count."""

    @staticmethod
    def _check(free, db, location, counts):
        ranked = _reference_ranking(free, location)
        for count in counts:
            assert db.nearest_free_ssids(location, count) == ranked[:count], (
                location, count,
            )

    def test_default_registry(self, city, wigle):
        ssids = wigle.free_columns()[0]
        counts = (0, 1, 40, 50, 100, 400, len(ssids) + 1)
        rng = np.random.default_rng(2017)
        bounds = city.config.bounds
        points = [v.region.center for v in city.venues] + [
            Point(float(x), float(y))
            for x, y in zip(
                rng.uniform(bounds.x0, bounds.x1, 300),
                rng.uniform(bounds.y0, bounds.y1, 300),
            )
        ]
        free = _free_rows(city.aps)
        for location in points:
            self._check(free, wigle, location, counts)

    def test_ties_rank_in_record_order(self):
        # Twelve equidistant APs of different SSIDs, up to 600 m apart.
        centre = Point(1000.0, 1000.0)
        aps = [
            _ap("Ring-%d" % i, centre.x + dx, centre.y + dy)
            for i, (dx, dy) in enumerate(_RING)
        ]
        db = WigleDatabase(aps)
        assert db.nearest_free_ssids(centre, 12) == [
            "Ring-%d" % i for i in range(12)
        ]
        self._check(_free_rows(aps), db, centre, range(14))

    def test_ties_at_the_fetch_cut_rank_in_record_order(self):
        # 60 near APs share two SSIDs, so asking for five SSIDs fetches
        # 64 records and the cut falls inside the 300 m ring: every
        # tied record joins the sort, and the ring keeps record order.
        centre = Point(5000.0, 5000.0)
        ring = [
            _ap("Ring-%d" % i, centre.x + dx, centre.y + dy)
            for i, (dx, dy) in enumerate(_RING)
        ]
        near = [
            _ap("Dup-%s" % "AB"[i % 2], centre.x + 1.0 + i, centre.y)
            for i in range(60)
        ]
        far = [_ap("Far-%d" % i, 100.0 * i, 0.0) for i in range(30)]
        aps = far[:15] + ring[6:] + ring[:6] + near + far[15:]
        db = WigleDatabase(aps)
        assert db.nearest_free_ssids(centre, 5) == [
            "Dup-A", "Dup-B", "Ring-6", "Ring-7", "Ring-8",
        ]
        self._check(_free_rows(aps), db, centre, (1, 2, 3, 5, 14, 15, 20, 44, 45))
