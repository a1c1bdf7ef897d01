"""Tests for synthetic-city generation (repro.city)."""

import hashlib

import numpy as np
import pytest

from repro.city.aps import ATTACK_VENUE_KINDS, terminal_region
from repro.city.chains import ChainSpec, PlacementMix, default_chain_catalog
from repro.city.heatmap import HeatMap
from repro.city.model import CityConfig, build_city
from repro.city.venues import VenueKind, default_venues, venue_by_name
from repro.dot11.ssid import validate_ssid
from repro.experiments.calibration import default_city
from repro.geo.point import Point
from repro.geo.region import Rect

DEFAULT_CITY_DIGEST = (
    "6c659023901a4f2db6d20a25126f57be6881957fabb2509e35173d5a808314aa"
)
"""``city_digest(default_city())``, recorded when the city was still built
from one scalar ``rng.uniform`` call per coordinate and one object per
photo.  Every draw of the city feeds it, so a change to how the city is
drawn must leave it alone."""


def city_digest(city) -> str:
    """SHA-256 over every AP (SSID, security, source and the exact bits of
    both coordinates, in order), every photo coordinate and the heat grid."""
    h = hashlib.sha256()
    for ap in city.aps:
        h.update(("%s|%s|%s|%s|%s\n" % (
            ap.ssid, ap.security.name, ap.source,
            ap.location.x.hex(), ap.location.y.hex(),
        )).encode())
    for x, y in city.photos.tolist():
        h.update(("%s %s\n" % (x.hex(), y.hex())).encode())
    grid = city.heatmap._grid  # the grid has no public accessor
    h.update(("%d %d\n" % grid.shape).encode())
    h.update(grid.astype("<i8").tobytes())
    return h.hexdigest()


class TestChainCatalog:
    def test_every_spec_valid(self):
        for spec in default_chain_catalog():
            validate_ssid(spec.name)
            assert spec.ap_count > 0
            assert 0 <= spec.adoption <= 1

    def test_named_paper_ssids_present(self):
        names = {c.name for c in default_chain_catalog()}
        for expected in (
            "-Free HKBN Wi-Fi-",
            "7-Eleven Free Wifi",
            "-Circle K Free Wi-Fi-",
            "CSL",
            "CMCC-WEB",
            "Free Public WiFi",
            "FREE 3Y5 AdWiFi",
        ):
            assert expected in names

    def test_ap_count_ordering_matches_table4_left(self):
        by_count = sorted(
            default_chain_catalog(), key=lambda c: -c.ap_count
        )
        top5 = [c.name for c in by_count[:5] if c.security.is_open]
        assert top5[:2] == ["-Free HKBN Wi-Fi-", "7-Eleven Free Wifi"]

    def test_placement_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PlacementMix(hot=0.5, street=0.6)

    def test_placement_mix_no_negative(self):
        with pytest.raises(ValueError):
            PlacementMix(hot=-0.1, street=1.1)

    def test_chain_spec_validation(self):
        with pytest.raises(ValueError):
            ChainSpec("X", 0, PlacementMix(street=1.0), adoption=0.1)
        with pytest.raises(ValueError):
            ChainSpec("X", 5, PlacementMix(street=1.0), adoption=1.5)


class TestVenues:
    def test_four_attack_venues_present(self):
        venues = default_venues()
        kinds = {v.kind for v in venues}
        for needed in ATTACK_VENUE_KINDS:
            assert needed in kinds

    def test_airport_present_and_remote(self):
        venues = default_venues()
        airport = next(v for v in venues if v.kind is VenueKind.AIRPORT)
        canteen = next(v for v in venues if v.kind is VenueKind.CANTEEN)
        assert airport.region.center.distance_to(canteen.region.center) > 10_000

    def test_lookup_by_name(self):
        venues = default_venues()
        assert venue_by_name(venues, "University Canteen").kind is VenueKind.CANTEEN
        with pytest.raises(KeyError):
            venue_by_name(venues, "Atlantis")


class TestTerminalRegion:
    def test_centered_and_shrunk(self):
        airport = Rect(0, 0, 1000, 500)
        term = terminal_region(airport, shrink=0.3)
        assert term.center == airport.center
        assert term.width == pytest.approx(300)
        assert term.height == pytest.approx(150)


class TestCityModel:
    def test_city_has_all_ap_sources(self, city):
        sources = {ap.source.split(":")[0] for ap in city.aps}
        assert sources == {"chain", "venue", "shop", "residential"}

    def test_chain_ap_counts_exact(self, city):
        from collections import Counter

        counts = Counter(
            ap.source for ap in city.aps if ap.source.startswith("chain:")
        )
        for spec in city.chains:
            assert counts[f"chain:{spec.name}"] == spec.ap_count

    def test_airport_aps_in_terminal(self, city):
        airport = city.venue("International Airport")
        term = terminal_region(airport.region)
        aps = [a for a in city.aps if a.source == "venue:International Airport"]
        assert len(aps) == 231
        assert all(term.contains(a.location) for a in aps)

    def test_public_pool_only_open_networks(self, city):
        secured = set(city.secured_public_ssids())
        for pub in city.public_pool:
            assert pub.ssid not in secured
            assert 0 < pub.adoption < 0.05

    def test_adoption_mass_in_calibrated_band(self, city):
        # The one number the whole hit-rate calibration hangs off.
        assert 0.10 < city.expected_adoption_mass() < 0.16

    def test_open_shop_pool_nonempty(self, city):
        assert len(city.open_shop_ssids) > 3000

    def test_venue_lookup(self, city):
        assert city.venue("University Canteen").kind is VenueKind.CANTEEN
        with pytest.raises(KeyError):
            city.venue("nope")

    def test_deterministic_generation(self):
        config = CityConfig(n_shops=100, n_residential=100, background_photos=100)
        a = build_city(config, np.random.default_rng(5))
        b = build_city(config, np.random.default_rng(5))
        assert [x.ssid for x in a.aps] == [x.ssid for x in b.aps]
        assert np.array_equal(a.photos, b.photos)

    def test_default_city_pinned_bit_for_bit(self):
        assert city_digest(default_city()) == DEFAULT_CITY_DIGEST

    def test_urban_canyon_clusters_exist(self, city):
        """Every attack venue is surrounded by dense unique APs."""
        for name in (
            "University Canteen",
            "Central Subway Passage",
            "Harbour Shopping Center",
            "City Railway Station",
        ):
            venue = city.venue(name)
            center = venue.region.center
            near = [
                ap
                for ap in city.aps
                if ap.location.distance_to(center) < 260
                and ap.source in ("residential", "shop")
            ]
            assert len(near) > 300


class TestPhotosAndHeatmap:
    def test_photo_volume_tracks_crowd(self, city):
        airport = city.venue("International Airport")
        canteen = city.venue("University Canteen")
        assert city.photos.ndim == 2 and city.photos.shape[1] == 2
        in_region = lambda r: sum(
            1 for x, y in city.photos.tolist() if r.contains(Point(x, y))
        )
        assert in_region(airport.region) > in_region(canteen.region)

    def test_heat_at_hot_venue_beats_wilderness(self, city):
        mall = city.venue("iSQUARE Mall")
        assert city.heatmap.heat_at(mall.region.center) > city.heatmap.heat_at(
            Point(100, 100)
        )

    def test_hottest_cells_are_sorted(self, city):
        cells = city.heatmap.hottest_cells(10)
        heats = [h for _, h in cells]
        assert heats == sorted(heats, reverse=True)
        assert len(cells) == 10

    def test_render_produces_grid(self, city):
        art = city.heatmap.render(cols=40, rows=20)
        lines = art.splitlines()
        assert len(lines) >= 10
        assert len(set(len(l) for l in lines)) == 1  # rectangular

    def test_total_photos_counted(self, city):
        assert city.photos.shape == (city.heatmap.total_photos, 2)

    def test_heat_at_follows_the_cell_rule(self):
        """Cells are ``floor((coordinate - origin) / cell)``, clamped into
        the grid: points on a cell edge belong to the upper cell, points on
        or outside the bounds to an edge cell."""
        hm = HeatMap(Rect(-50, 0, 950, 500), cell_size=100.0)
        photos = np.array([
            [-50.0, 0.0], [49.999, 99.999], [50.0, 100.0], [949.0, 499.0],
            [-400.0, 250.0], [2_000.0, -3.0], [950.0, 500.0], [50.0, 100.0],
        ])
        hm.add_points(photos[:, 0], photos[:, 1])
        assert hm.total_photos == 8
        assert hm.heat_at(Point(-50, 0)) == 2  # (-50, 0) and (49.999, 99.999)
        assert hm.heat_at(Point(50, 100)) == 2
        assert hm.heat_at(Point(149.9, 199.9)) == 2
        assert hm.heat_at(Point(900, 450)) == 2  # (949, 499) and (950, 500)
        assert hm.heat_at(Point(-1e6, 260)) == 1  # clamped to column 0
        assert hm.heat_at(Point(1e6, -1e6)) == 1  # clamped to the last column
        assert hm.heat_at(Point(400, 400)) == 0
        assert hm.heat_of(photos[:, 0], photos[:, 1]).tolist() == [
            2, 2, 2, 2, 1, 1, 2, 2,
        ]
