"""Tests for the WiGLE-like registry (repro.wigle)."""

from collections import Counter

import numpy as np
import pytest

from repro.city.aps import AccessPoint
from repro.city.heatmap import HeatMap
from repro.dot11.capabilities import Security
from repro.geo.point import Point
from repro.geo.region import Rect
from repro.wigle.database import WigleDatabase
from repro.wigle.queries import ssid_heat_values, top_ssids_by_count, top_ssids_by_heat
from repro.wigle.records import WigleRecord


def _small_db():
    aps = [
        AccessPoint("Chain", Security.OPEN, Point(0, 0), "chain:Chain"),
        AccessPoint("Chain", Security.OPEN, Point(100, 0), "chain:Chain"),
        AccessPoint("Chain", Security.OPEN, Point(200, 0), "chain:Chain"),
        AccessPoint("Cafe", Security.OPEN, Point(10, 0), "shop"),
        AccessPoint("Secret", Security.WPA2_PSK, Point(5, 0), "residential"),
        AccessPoint("Far", Security.OPEN, Point(5000, 5000), "shop"),
    ]
    return WigleDatabase.from_access_points(aps)


def _tied_db():
    """Count ties, an SSID whose first record is secured, and APs outside
    the heat map's bounds."""
    def ap(ssid, x, y, free=True):
        security = Security.OPEN if free else Security.WPA2_PSK
        return AccessPoint(ssid, security, Point(x, y), "shop")

    return WigleDatabase.from_access_points([
        ap("Tie-B", 5, 5, free=False),
        ap("Tie-A", 120, 40),
        ap("Tie-B", 120, 40),
        ap("Solo", 999, 999),
        ap("Tie-A", -300, 50),
        ap("Tie-B", 480, 2_000),
        ap("Locked", 120, 40, free=False),
        ap("Tie-C", 100, 100),
        ap("Tie-C", 350, 250),
        ap("Trio", 0, 0),
        ap("Trio", 0, 0),
        ap("Trio", 499.5, 499.5),
    ])


def _tied_heatmap():
    hm = HeatMap(Rect(0, 0, 500, 500), cell_size=100.0)
    rng = np.random.default_rng(3)
    xy = rng.uniform(-100, 600, size=(400, 2))
    hm.add_points(xy[:, 0], xy[:, 1])
    return hm


def _reference_counts(db):
    """One ``Counter`` over the free records, in record order."""
    counts = Counter()
    for rec in db.records:
        if rec.free:
            counts[rec.ssid] += 1
    return counts


def _reference_heats(db, heatmap):
    """Per-record heat sums through the scalar cell rule:
    ``floor((coordinate - origin) / cell)``, clamped into the grid."""
    grid, bounds, cell = heatmap._grid, heatmap.bounds, heatmap.cell_size
    heats = {}
    for rec in db.records:
        if not rec.free:
            continue
        ix = min(max(int((rec.location.x - bounds.x0) // cell), 0), heatmap.nx - 1)
        iy = min(max(int((rec.location.y - bounds.y0) // cell), 0), heatmap.ny - 1)
        heats[rec.ssid] = heats.get(rec.ssid, 0.0) + int(grid[ix, iy])
    return heats


class TestRecords:
    def test_projection_hides_provenance(self):
        ap = AccessPoint("X", Security.OPEN, Point(1, 2), "chain:X")
        rec = WigleRecord.from_access_point(ap)
        assert rec.ssid == "X"
        assert rec.free
        assert rec.location == Point(1, 2)
        assert not hasattr(rec, "source")

    def test_secured_marked_not_free(self):
        ap = AccessPoint("Y", Security.WPA2_PSK, Point(0, 0), "shop")
        assert not WigleRecord.from_access_point(ap).free


class TestDatabase:
    def test_len_counts_aps_not_ssids(self):
        assert len(_small_db()) == 6

    def test_aps_of(self):
        db = _small_db()
        assert len(db.aps_of("Chain")) == 3
        assert db.aps_of("missing") == []

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
    def _check(db, heatmap):
        counts = _reference_counts(db)
        for n in (0, 1, 5, 100, 200, len(counts), len(counts) + 7):
            assert top_ssids_by_count(db, n) == counts.most_common(n), n
        assert db.free_count_ranking() == tuple(counts.most_common())
        heats = ssid_heat_values(db, heatmap)
        expected = _reference_heats(db, heatmap)
        assert list(heats) == list(expected)
        assert [v.hex() for v in heats.values()] == [
            float(v).hex() for v in expected.values()
        ]
        assert all(type(v) is float for v in heats.values())

    def test_default_registry(self, city, wigle):
        self._check(wigle, city.heatmap)

    def test_small_registry_with_ties(self):
        db, hm = _tied_db(), _tied_heatmap()
        self._check(db, hm)
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
