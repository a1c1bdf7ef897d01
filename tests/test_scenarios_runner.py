"""Integration tests for scenario assembly and the experiment runner."""

import pytest

from repro.experiments.attackers import make_cityhunter, make_karma, make_mana
from repro.experiments.calibration import venue_profile
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import ScenarioConfig, build_scenario


def _quick(city, wigle, factory, venue="canteen", duration=300.0, seed=5, **kw):
    return run_experiment(
        city, wigle, factory, venue_profile(venue), duration, seed=seed, **kw
    )


class TestRunnerBasics:
    def test_clients_observed(self, city, wigle):
        result = _quick(city, wigle, make_karma())
        assert result.summary.total_clients > 30
        assert result.people_spawned >= result.summary.total_clients

    def test_deterministic_given_seed(self, city, wigle):
        a = _quick(city, wigle, make_mana(), seed=9)
        b = _quick(city, wigle, make_mana(), seed=9)
        assert a.summary == b.summary

    def test_seed_changes_outcome(self, city, wigle):
        a = _quick(city, wigle, make_mana(), seed=9)
        b = _quick(city, wigle, make_mana(), seed=10)
        assert a.summary != b.summary

    def test_result_properties(self, city, wigle):
        r = _quick(city, wigle, make_karma())
        assert r.h == r.summary.hit_rate
        assert r.h_b == r.summary.broadcast_hit_rate

    def test_direct_and_broadcast_clients_both_present(self, city, wigle):
        r = _quick(city, wigle, make_karma(), duration=600.0)
        assert r.summary.direct_clients > 0
        assert r.summary.broadcast_clients > r.summary.direct_clients


class TestFidelityEquivalence:
    def test_frame_and_burst_agree(self, city, wigle):
        """The burst fast path must reproduce frame-level results.

        With no direct probers the reception arithmetic is identical, so
        summaries must match exactly.
        """
        from repro.population.pnl import PnlModel

        model = PnlModel(p_unsafe=0.0)
        hunter = lambda: make_cityhunter(wigle, city.heatmap)
        frame = _quick(
            city, wigle, hunter(), duration=600.0, fidelity="frame", pnl_model=model
        )
        burst = _quick(
            city, wigle, hunter(), duration=600.0, fidelity="burst", pnl_model=model
        )
        assert frame.summary == burst.summary

    def test_mixed_traffic_agreement_is_close(self, city, wigle):
        """With direct probers the window bookkeeping differs slightly
        between modes; hit rates must still agree within a point."""
        hunter = lambda: make_cityhunter(wigle, city.heatmap)
        frame = _quick(city, wigle, hunter(), duration=900.0, fidelity="frame")
        burst = _quick(city, wigle, hunter(), duration=900.0, fidelity="burst")
        assert frame.summary.total_clients == burst.summary.total_clients
        assert abs(frame.h_b - burst.h_b) < 0.02


class TestScenarioConfig:
    def test_unknown_mobility_rejected(self, city, wigle):
        config = ScenarioConfig(
            venue_name="University Canteen",
            mobility="teleport",
            people_per_min=10.0,
            duration=60.0,
        )
        build = build_scenario(city, wigle, config, make_karma())
        with pytest.raises(ValueError):
            build.sim.run(60.0)

    def test_unknown_venue_rejected(self, city, wigle):
        config = ScenarioConfig(
            venue_name="Narnia", mobility="static",
            people_per_min=10.0, duration=60.0,
        )
        with pytest.raises(KeyError):
            build_scenario(city, wigle, config, make_karma())

    def test_group_members_share_mobility(self, city, wigle):
        config = ScenarioConfig(
            venue_name="University Canteen",
            mobility="static",
            people_per_min=30.0,
            duration=120.0,
            group_probs=(0.0, 0.0, 0.0, 1.0),  # everyone in groups of 4
            seed=3,
        )
        build = build_scenario(city, wigle, config, make_karma())
        build.sim.run(150.0)
        assert build.phones
        by_group = {}
        for phone in build.phones:
            gid = phone.person.group_id
            by_group.setdefault(gid, set()).add(id(phone.mobility))
        for gid, mobilities in by_group.items():
            if gid >= 0:
                assert len(mobilities) == 1  # literally walking together

    def test_camped_clients_absent_without_venue_ap(self, city, wigle):
        """People holding the venue SSID are mostly silent (camped)."""
        from repro.population.pnl import PnlModel

        venue = city.venue("University Canteen")
        config = ScenarioConfig(
            venue_name=venue.name,
            mobility="static",
            people_per_min=40.0,
            duration=400.0,
            camped_share=1.0,
            seed=3,
        )
        build = build_scenario(city, wigle, config, make_karma())
        build.sim.run(430.0)
        for phone in build.phones:
            open_venue = any(
                s in phone.person.pnl and phone.person.pnl[s].auto_joinable
                for s in venue.wifi_ssids
            )
            assert not open_venue  # all holders were camped away

    def test_include_camped_spawns_venue_ap_and_silent_clients(self, city, wigle):
        config = ScenarioConfig(
            venue_name="University Canteen",
            mobility="static",
            people_per_min=40.0,
            duration=400.0,
            camped_share=1.0,
            include_camped=True,
            seed=3,
        )
        build = build_scenario(city, wigle, config, make_karma())
        build.sim.run(430.0)
        assert build.venue_ap is not None
        camped = [p for p in build.phones if p.connected_bssid == build.venue_ap.mac]
        assert camped
        for phone in camped:
            assert phone.scans_performed == 0


class TestConfigValidation:
    def _config(self, **overrides):
        kwargs = dict(
            venue_name="University Canteen",
            mobility="static",
            people_per_min=10.0,
            duration=60.0,
        )
        kwargs.update(overrides)
        return ScenarioConfig(**kwargs)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError):
            self._config(duration=0.0)
        with pytest.raises(ValueError):
            self._config(duration=-5.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            self._config(people_per_min=-1.0)

    def test_bad_camped_share_rejected(self):
        with pytest.raises(ValueError):
            self._config(camped_share=1.5)

    @pytest.mark.parametrize("probs", [
        (0.0, 0.0, 0.0, 0.0),
        (0.6, float("nan"), 0.4),
        (-0.5, 1.5),
    ])
    def test_bad_group_probs_rejected(self, probs):
        # All-zero weights used to fail inside build_scenario with a
        # bare ZeroDivisionError from the mean group size.
        with pytest.raises(ValueError, match="group_probs"):
            self._config(group_probs=probs)
