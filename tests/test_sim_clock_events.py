"""Tests for the clock and event primitives (repro.sim)."""

import math
import re

import pytest

from repro.sim.clock import Clock
from repro.sim.events import EventHandle


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Clock(-1.0)

    def test_advance(self):
        c = Clock()
        c.advance_to(3.5)
        assert c.now == 3.5

    def test_advance_to_same_time_allowed(self):
        c = Clock(2.0)
        c.advance_to(2.0)
        assert c.now == 2.0

    def test_backwards_rejected(self):
        c = Clock(2.0)
        with pytest.raises(ValueError):
            c.advance_to(1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, bad):
        with pytest.raises(ValueError, match="got " + re.escape(repr(bad))):
            Clock(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_advance_rejected(self, bad):
        c = Clock(2.0)
        with pytest.raises(ValueError, match="got " + re.escape(repr(bad))):
            c.advance_to(bad)
        assert c.now == 2.0


class TestEventHandle:
    def test_alive_until_cancelled(self):
        e = EventHandle(1.0, 0, lambda: None, ())
        assert e.alive
        e.cancel()
        assert not e.alive

    def test_cancel_idempotent(self):
        e = EventHandle(1.0, 0, lambda: None, ())
        e.cancel()
        e.cancel()
        assert not e.alive

    def test_ordering_by_time_then_seq(self):
        early = EventHandle(1.0, 5, lambda: None, ())
        late = EventHandle(2.0, 0, lambda: None, ())
        assert early < late
        first = EventHandle(1.0, 0, lambda: None, ())
        second = EventHandle(1.0, 1, lambda: None, ())
        assert first < second
