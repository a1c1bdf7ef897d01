"""Simulation clock.

Time is a float number of seconds since the start of the run, always
finite.  The clock only ever moves forward; the scheduler is the single
writer.  On its hot paths the scheduler reads ``_now`` directly, and its
run loop sets it directly too: every event time was checked on the way
into the heap and comes off it in order.  :meth:`Clock.advance_to` is
the checked path for every other move.
"""

from __future__ import annotations

from math import inf
from typing import List


def epoch_schedule(duration: float, epoch_s: float) -> List[float]:
    """Barrier times ``[0, e, 2e, ..., >= duration]`` for epoch stepping.

    Each barrier is computed by *multiplication* (``b * epoch_s``), not
    accumulation, so every shard — at any shard count — computes the
    exact same float for barrier ``b``.  The final barrier is the first
    multiple of ``epoch_s`` at or past ``duration``, so the last epoch
    may be short when ``duration`` is not a multiple.
    """
    if duration <= 0:
        raise ValueError("duration must be positive, got %r" % duration)
    if epoch_s <= 0:
        raise ValueError("epoch_s must be positive, got %r" % epoch_s)
    barriers = [0.0]
    b = 1
    while True:
        t = b * epoch_s
        barriers.append(t)
        if t >= duration:
            return barriers
        b += 1


class Clock:
    """Monotonic simulation clock (seconds)."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0):
        if not (0 <= start < inf):
            raise ValueError("clock start must be finite and >= 0, got %r" % start)
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def advance_to(self, t: float) -> None:
        """Move the clock forward to ``t``.

        Raises ``ValueError`` on any attempt to move backwards, or to a
        NaN or infinite time — that always indicates a scheduler bug,
        never a legitimate request.
        """
        if not (self._now <= t < inf):
            raise ValueError(
                "clock time must be finite and >= now=%r, got %r" % (self._now, t)
            )
        self._now = t
