"""Tests for planar geometry (repro.geo)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geo.grid import SpatialGrid
from repro.geo.point import Point, distance
from repro.geo.region import Rect

coords = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)


class TestPoint:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_function_matches_method(self):
        a, b = Point(1, 2), Point(4, 6)
        assert distance(a, b) == a.distance_to(b)

    def test_translated(self):
        assert Point(1, 1).translated(2, -1) == Point(3, 0)

    def test_towards_endpoints(self):
        a, b = Point(0, 0), Point(10, 0)
        assert a.towards(b, 0.0) == a
        assert a.towards(b, 1.0) == b
        assert a.towards(b, 0.5) == Point(5, 0)

    @given(coords, coords, coords, coords)
    def test_property_distance_symmetry(self, x1, y1, x2, y2):
        a, b = Point(x1, y1), Point(x2, y2)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(coords, coords, coords, coords, st.floats(0, 1))
    def test_property_interpolation_on_segment(self, x1, y1, x2, y2, frac):
        a, b = Point(x1, y1), Point(x2, y2)
        mid = a.towards(b, frac)
        total = a.distance_to(b)
        # Interpolated point splits the segment length.
        assert a.distance_to(mid) + mid.distance_to(b) == pytest.approx(
            total, abs=1e-6 * max(1.0, total)
        )


class TestRect:
    def test_dimensions(self):
        r = Rect(0, 0, 4, 3)
        assert r.width == 4 and r.height == 3
        assert r.area == 12
        assert r.center == Point(2, 1.5)

    def test_contains_edges(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains(Point(0, 0))
        assert r.contains(Point(2, 2))
        assert not r.contains(Point(2.01, 1))

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)

    def test_sample_inside(self):
        r = Rect(10, 20, 30, 40)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert r.contains(r.sample(rng))

    def test_sample_equals_two_uniform_draws(self):
        """``sample`` gives the bits of ``uniform(x0, x1)``, ``uniform(y0, y1)``
        and leaves the generator where those two draws leave it."""
        meta = np.random.default_rng(2024)
        rects = [
            Rect(5, 7, 5, 7),  # degenerate: a point
            Rect(-3.5, 2.0, -3.5, 9.25),  # degenerate: zero width
            Rect(0, 0, 30_000, 30_000),  # integer corners, as the city's
            Rect(14_000, 14_000, 14_060, 14_040),
        ]
        for _ in range(200):
            x0, x1 = sorted(meta.uniform(-4e4, 4e4, size=2).tolist())
            y0, y1 = sorted(meta.uniform(-4e4, 4e4, size=2).tolist())
            rects.append(Rect(x0, y0, x1, y1))
        for seed, r in enumerate(rects):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                p = r.sample(ours)
                x = float(ref.uniform(r.x0, r.x1))
                y = float(ref.uniform(r.y0, r.y1))
                assert (p.x.hex(), p.y.hex()) == (x.hex(), y.hex()), r
            assert ours.random() == ref.random()

    def test_expanded(self):
        r = Rect(1, 1, 2, 2).expanded(1)
        assert (r.x0, r.y0, r.x1, r.y1) == (0, 0, 3, 3)


class TestSpatialGrid:
    def _populated(self, n=300, seed=0, cell=10.0):
        rng = np.random.default_rng(seed)
        grid = SpatialGrid(cell)
        points = [Point(float(x), float(y)) for x, y in rng.uniform(0, 500, (n, 2))]
        for i, p in enumerate(points):
            grid.insert(p, i)
        return grid, points

    def test_len(self):
        grid, points = self._populated(50)
        assert len(grid) == 50

    def test_within_matches_brute_force(self):
        grid, points = self._populated()
        center = Point(250, 250)
        radius = 60.0
        got = sorted(i for _, i in grid.within(center, radius))
        want = sorted(
            i for i, p in enumerate(points) if p.distance_to(center) <= radius
        )
        assert got == want

    def test_nearest_matches_brute_force(self):
        grid, points = self._populated()
        center = Point(100, 400)
        got = [i for _, i in grid.nearest(center, 12)]
        want = sorted(range(len(points)), key=lambda i: points[i].distance_to(center))
        assert got == want[:12]

    def test_nearest_more_than_population(self):
        grid, points = self._populated(5)
        assert len(grid.nearest(Point(0, 0), 50)) == 5

    def test_nearest_empty_grid(self):
        grid = SpatialGrid(10.0)
        assert grid.nearest(Point(0, 0), 3) == []

    def test_nearest_zero_count(self):
        grid, _ = self._populated(5)
        assert grid.nearest(Point(0, 0), 0) == []

    def test_negative_radius_rejected(self):
        grid, _ = self._populated(5)
        with pytest.raises(ValueError):
            grid.within(Point(0, 0), -1.0)

    def test_bad_cell_size_rejected(self):
        with pytest.raises(ValueError):
            SpatialGrid(0.0)

    def test_items_iterates_everything(self):
        grid, points = self._populated(40)
        assert sorted(i for _, i in grid.items()) == list(range(40))

    @given(st.integers(0, 2**31), st.integers(1, 80),
           st.floats(min_value=1.0, max_value=200.0))
    def test_property_within_equals_bruteforce(self, seed, n, radius):
        rng = np.random.default_rng(seed)
        grid = SpatialGrid(25.0)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 300, (n, 2))]
        for i, p in enumerate(pts):
            grid.insert(p, i)
        center = Point(150, 150)
        got = sorted(i for _, i in grid.within(center, radius))
        want = sorted(i for i, p in enumerate(pts) if p.distance_to(center) <= radius)
        assert got == want
