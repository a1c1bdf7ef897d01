"""Tests for planar geometry (repro.geo)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
