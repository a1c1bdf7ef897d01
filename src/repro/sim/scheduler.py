"""Binary-heap event scheduler with lazy cancellation.

Heap entries are ``(time, seq, handle)`` tuples, so :mod:`heapq` orders
them with C tuple comparison; ``seq`` is unique, so two entries never
tie far enough to compare their handles.  A cancelled handle stays in
the heap and is dropped when it reaches the top.

:meth:`Scheduler.schedule_at` is the single place an event enters the
heap: :meth:`Scheduler.schedule` and ``Simulation.at``/``at_time`` all
go through it.  That makes it the tracer's hook: ``perfbench/tracer.py``
wraps this one method to see every callback and credit it to its layer.

:meth:`Scheduler.run_until` and :meth:`Scheduler.run_all` share one run
loop.  It reads the heap top once per event, counts the event in
``fired`` before calling it, and, when a profiler is attached, times
the callback inside that same loop.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from time import perf_counter
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.clock import Clock
from repro.sim.events import EventHandle


class Scheduler:
    """Priority queue of timed callbacks driving a :class:`Clock`.

    The scheduler is the only component allowed to advance the clock; it
    does so just before invoking each callback, so a callback always
    observes ``clock.now`` equal to its own fire time, and ``fired``
    already counting its own event.

    When ``profiler`` is set (a :class:`~repro.obs.profiler.SimProfiler`),
    every callback is timed and credited by qualified name; the attribute
    stays ``None`` by default so the hot loop pays a single ``is None``
    check.
    """

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock if clock is not None else Clock()
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._fired = 0
        self.profiler = None

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not (0.0 <= delay < inf):
            raise ValueError("delay must be finite and >= 0, got %r" % delay)
        return self.schedule_at(self.clock._now + delay, fn, *args)

    def schedule_at(
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute time ``time``."""
        now = self.clock._now
        # One chained comparison rejects the past, NaN and +inf alike.
        if not (now <= time < inf):
            raise ValueError(
                "event time must be finite and >= now=%r, got %r" % (now, time)
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, fn, args)
        heappush(self._heap, (time, seq, handle))
        return handle

    @property
    def pending(self) -> int:
        """Number of live events still queued (excludes cancelled)."""
        return sum(1 for _, _, e in self._heap if e.alive)

    @property
    def fired(self) -> int:
        """Total number of events that have been executed."""
        return self._fired

    def run_until(self, end_time: float) -> int:
        """Run events with fire time <= ``end_time``, then set the clock
        there; returns the number of events fired.

        Events scheduled beyond ``end_time`` stay queued, so a simulation
        can be resumed with a later deadline.
        """
        now = self.clock.now
        if not (now <= end_time < inf):
            raise ValueError(
                "end_time must be finite and >= now=%r, got %r "
                "(run_all drains the queue)" % (now, end_time)
            )
        fired = self._run(end_time, inf)
        self.clock.advance_to(end_time)
        return fired

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Drain the queue completely; returns the number of events fired.

        ``max_events`` is a runaway guard: exceeding it raises
        ``RuntimeError`` instead of looping forever on self-rescheduling
        bugs.
        """
        return self._run(inf, max_events)

    def _run(self, end_time: float, max_events: float) -> int:
        """Fire live events due at or before ``end_time`` in ``(time, seq)``
        order; raise, leaving the queue intact, once more than
        ``max_events`` would fire."""
        heap = self._heap
        clock = self.clock
        profiler = self.profiler
        start = self._fired
        limit = start + max_events
        while heap:
            time, _, event = heap[0]
            if time > end_time:
                break
            if not event._alive:
                heappop(heap)
                continue
            fired = self._fired
            if fired >= limit:
                raise RuntimeError("run_all exceeded %d events" % max_events)
            heappop(heap)
            event._alive = False
            self._fired = fired + 1
            fn = event.fn
            # schedule_at kept every time finite and >= the clock, and the
            # heap pops them in order, so the clock needs no check here.
            if profiler is None:
                clock._now = time
                fn(*event.args)
                continue
            advance = time - clock._now
            clock._now = time
            t0 = perf_counter()
            fn(*event.args)
            profiler.record(
                getattr(fn, "__qualname__", repr(fn)), perf_counter() - t0, advance
            )
        return self._fired - start
