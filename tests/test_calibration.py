"""Tests for the calibrated venue profiles (repro.experiments.calibration)."""

import pytest

from repro.experiments.calibration import (
    GROUP_PROBS_BASE,
    GROUP_PROBS_RUSH,
    all_profiles,
    default_city,
    mean_group_size,
    venue_profile,
)
from repro.experiments.runner import shared_wigle

VENUE_KEYS = ("canteen", "passage", "shopping_center", "railway_station")


class TestVenueProfiles:
    @pytest.mark.parametrize("key", VENUE_KEYS)
    def test_known_keys_resolve(self, key):
        profile = venue_profile(key)
        assert profile.venue_name
        assert profile.mobility in ("static", "corridor", "hybrid")
        assert profile.people_per_min_30min_test > 0

    def test_unknown_key_raises_with_choices(self):
        with pytest.raises(KeyError) as err:
            venue_profile("rooftop_bar")
        message = str(err.value)
        assert "rooftop_bar" in message
        for key in VENUE_KEYS:
            assert key in message

    def test_all_profiles_complete(self):
        profiles = all_profiles()
        assert sorted(profiles) == sorted(VENUE_KEYS)
        for key, profile in profiles.items():
            assert profile is venue_profile(key)

    def test_all_profiles_returns_a_copy(self):
        profiles = all_profiles()
        profiles["fake"] = None
        assert "fake" not in all_profiles()

    @pytest.mark.parametrize("key", VENUE_KEYS)
    def test_hourly_series_covers_8am_to_8pm(self, key):
        profile = venue_profile(key)
        rates = profile.hourly_people_per_min.rates
        assert len(rates) == 12
        assert all(r > 0 for r in rates)
        assert all(0 <= slot < 12 for slot in profile.rush_slots)

    def test_paper_volume_ordering(self):
        """The passage is the paper's busiest 30-minute test by far."""
        volumes = {
            key: venue_profile(key).people_per_min_30min_test
            for key in VENUE_KEYS
        }
        assert volumes["passage"] == max(volumes.values())
        assert volumes["canteen"] == min(volumes.values())


class TestGroupSizes:
    def test_probability_vectors_normalised(self):
        assert sum(GROUP_PROBS_BASE) == pytest.approx(1.0)
        assert sum(GROUP_PROBS_RUSH) == pytest.approx(1.0)

    def test_mean_group_size_simple(self):
        assert mean_group_size((1.0,)) == pytest.approx(1.0)
        assert mean_group_size((0.0, 1.0)) == pytest.approx(2.0)
        assert mean_group_size((0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.5)

    def test_mean_group_size_normalises(self):
        # Unnormalised vectors are scaled by their total.
        assert mean_group_size((2.0, 2.0)) == pytest.approx(1.5)

    def test_rush_groups_larger_than_base(self):
        assert mean_group_size(GROUP_PROBS_RUSH) > mean_group_size(
            GROUP_PROBS_BASE
        )


class TestDefaultCity:
    def test_cached_per_seed(self):
        assert default_city(42) is default_city(42)

    def test_cached_per_seed_value(self):
        """The default argument and the explicit seed are one cache key."""
        assert default_city() is default_city(42)
        assert default_city(seed=42) is default_city(42)
        assert shared_wigle() is shared_wigle(42)

    def test_registry_reuses_the_cached_city(self, monkeypatch):
        from repro.experiments import calibration, runner

        builds = []
        real = calibration.build_city

        def counting_build(*args, **kwargs):
            builds.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(calibration, "build_city", counting_build)
        calibration._city.cache_clear()
        runner._wigle.cache_clear()
        city = default_city()
        wigle = shared_wigle()
        assert len(builds) == 1
        assert default_city(42) is city
        assert shared_wigle(42) is wigle

    def test_city_has_venues_and_aps(self):
        city = default_city(42)
        assert len(city.aps) > 0
        for key in VENUE_KEYS:
            venue = city.venue(venue_profile(key).venue_name)
            assert venue.wifi_ssids
