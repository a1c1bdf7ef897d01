"""Tests for mobility models and arrivals (repro.mobility)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geo.point import Point
from repro.geo.region import Rect
from repro.mobility.arrivals import ArrivalProcess, HourlyRates
from repro.mobility.base import PathMobility
from repro.mobility.corridor import corridor_walk
from repro.mobility.static import static_dwell
from repro.mobility.waypoints import waypoint_wander
from repro.sim.simulation import Simulation


class TestPathMobility:
    def test_interpolates_linearly(self):
        path = PathMobility([(0.0, Point(0, 0)), (10.0, Point(10, 0))])
        assert path.position_at(5.0) == Point(5, 0)

    def test_clamps_outside_lifetime(self):
        path = PathMobility([(1.0, Point(0, 0)), (2.0, Point(10, 0))])
        assert path.position_at(0.0) == Point(0, 0)
        assert path.position_at(99.0) == Point(10, 0)

    def test_enter_exit(self):
        path = PathMobility([(1.0, Point(0, 0)), (4.0, Point(1, 1))])
        assert path.t_enter == 1.0
        assert path.t_exit == 4.0

    def test_multi_knot(self):
        path = PathMobility(
            [(0.0, Point(0, 0)), (1.0, Point(10, 0)), (3.0, Point(10, 20))]
        )
        assert path.position_at(2.0) == Point(10, 10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PathMobility([])

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError):
            PathMobility([(1.0, Point(0, 0)), (1.0, Point(1, 1))])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0.1, 100.0), min_size=2, max_size=8, unique=True))
    def test_property_position_always_finite(self, times):
        times = sorted(times)
        knots = [(t, Point(t, -t)) for t in times]
        path = PathMobility(knots)
        for q in np.linspace(times[0] - 1, times[-1] + 1, 23):
            p = path.position_at(float(q))
            assert np.isfinite(p.x) and np.isfinite(p.y)


class TestStaticDwell:
    def test_stays_put(self):
        rng = np.random.default_rng(0)
        region = Rect(0, 0, 10, 10)
        mob = static_dwell(region, 5.0, 600.0, rng)
        assert mob.position_at(mob.t_enter) == mob.position_at(mob.t_exit)
        assert region.contains(mob.position_at(100.0))

    def test_minimum_dwell(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            mob = static_dwell(Rect(0, 0, 1, 1), 0.0, 400.0, rng, dwell_min=120.0)
            assert mob.t_exit - mob.t_enter >= 120.0

    def test_bad_mean_rejected(self):
        with pytest.raises(ValueError):
            static_dwell(Rect(0, 0, 1, 1), 0.0, 10.0, np.random.default_rng(0))


class TestCorridorWalk:
    def test_crosses_full_corridor(self):
        rng = np.random.default_rng(1)
        corridor = Rect(0, 0, 200, 15)
        walk = corridor_walk(corridor, 0.0, rng, extension=40.0)
        start = walk.position_at(walk.t_enter)
        end = walk.position_at(walk.t_exit)
        assert abs(start.x - end.x) == pytest.approx(280.0)

    def test_duration_matches_speed_bounds(self):
        rng = np.random.default_rng(2)
        corridor = Rect(0, 0, 200, 15)
        for _ in range(50):
            walk = corridor_walk(corridor, 0.0, rng, extension=0.0)
            duration = walk.t_exit - walk.t_enter
            speed = 200.0 / duration
            assert 0.5 <= speed <= 3.0

    def test_vertical_corridor(self):
        rng = np.random.default_rng(3)
        corridor = Rect(0, 0, 15, 200)
        walk = corridor_walk(corridor, 0.0, rng, extension=10.0)
        start = walk.position_at(walk.t_enter)
        end = walk.position_at(walk.t_exit)
        assert abs(start.y - end.y) == pytest.approx(220.0)
        assert 0 <= start.x <= 15

    def test_both_directions_occur(self):
        rng = np.random.default_rng(4)
        corridor = Rect(0, 0, 200, 15)
        starts = {
            corridor_walk(corridor, 0.0, rng).position_at(0.0).x > 100
            for _ in range(30)
        }
        assert starts == {True, False}


class TestWaypointWander:
    def test_stays_in_region(self):
        rng = np.random.default_rng(5)
        region = Rect(0, 0, 100, 80)
        for _ in range(20):
            mob = waypoint_wander(region, 0.0, rng)
            for t in np.linspace(mob.t_enter, mob.t_exit, 37):
                assert region.expanded(1e-6).contains(mob.position_at(float(t)))

    def test_visit_has_positive_duration(self):
        rng = np.random.default_rng(6)
        mob = waypoint_wander(Rect(0, 0, 100, 80), 10.0, rng)
        assert mob.t_exit > mob.t_enter == 10.0


class TestHourlyRates:
    def test_needs_twelve(self):
        with pytest.raises(ValueError):
            HourlyRates((1.0,) * 11)

    def test_no_negative(self):
        with pytest.raises(ValueError):
            HourlyRates((1.0,) * 11 + (-1.0,))

    def test_slot_lookup(self):
        rates = HourlyRates(tuple(float(i) for i in range(12)))
        assert rates.rate_for_slot(0) == 0.0
        assert rates.rate_for_slot(11) == 11.0

    def test_labels(self):
        labels = HourlyRates((1.0,) * 12).slot_labels
        assert labels[0] == "8am-9am"
        assert labels[4] == "12pm-1pm"
        assert labels[11] == "7pm-8pm"


class TestArrivalProcess:
    def _run(self, rate, minutes=30.0, probs=(1.0,)):
        sim = Simulation(seed=4)
        spawned = []
        proc = ArrivalProcess(
            rate, lambda size, t: spawned.append((size, t)),
            group_size_probs=probs, stop_at=minutes * 60.0,
        )
        sim.add_entity(proc)
        sim.run(minutes * 60.0 + 60.0)
        return spawned, proc

    def test_rate_approximately_honoured(self):
        spawned, _ = self._run(10.0, minutes=30.0)
        assert 200 < len(spawned) < 400  # ~300 expected

    def test_zero_rate_spawns_nothing(self):
        spawned, _ = self._run(0.0)
        assert spawned == []

    def test_stop_at_honoured(self):
        spawned, _ = self._run(10.0, minutes=10.0)
        assert all(t <= 600.0 for _, t in spawned)

    def test_group_sizes_follow_distribution(self):
        spawned, _ = self._run(20.0, probs=(0.0, 0.0, 1.0))
        assert spawned and all(size == 3 for size, _ in spawned)

    def test_people_counter(self):
        spawned, proc = self._run(10.0)
        assert proc.people_spawned == sum(size for size, _ in spawned)
        assert proc.groups_spawned == len(spawned)

    def test_callable_rate_with_thinning(self):
        sim = Simulation(seed=4)
        spawned = []
        proc = ArrivalProcess(
            lambda t: 10.0 if t < 600 else 0.0,
            lambda size, t: spawned.append(t),
            max_rate_per_min=10.0,
            stop_at=1800.0,
        )
        sim.add_entity(proc)
        sim.run(1900.0)
        assert spawned and all(t <= 600.5 for t in spawned)

    def test_callable_rate_requires_envelope(self):
        with pytest.raises(ValueError):
            ArrivalProcess(lambda t: 1.0, lambda s, t: None)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ArrivalProcess(-1.0, lambda s, t: None)

    def test_bad_group_probs_rejected(self):
        # All-zero and NaN weights fail here, not at the first accepted
        # arrival: a NaN weight passes a sign check, and a bisection over
        # a NaN cdf would draw the largest group without complaint.
        for probs in (
            (-0.5, 1.5),
            (0.0, 0.0, 0.0, 0.0),
            (float("nan"), 0.5, 0.5),
            (0.5, float("inf")),
            (),
        ):
            with pytest.raises(ValueError, match="group_size_probs"):
                ArrivalProcess(1.0, lambda s, t: None, group_size_probs=probs)
