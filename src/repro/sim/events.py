"""Scheduled-event bookkeeping.

Events fire in ``(time, seq)`` order; ``seq`` is a monotonically
increasing tiebreaker so same-time events fire in the order they were
scheduled (FIFO), which keeps runs deterministic.

The scheduler's heap holds ``(time, seq, handle)`` tuples, which
:mod:`heapq` compares in C; ``seq`` is unique, so the handles themselves
are never compared.  :meth:`EventHandle.__lt__` states the same order
for anyone sorting handles directly, but the heap does not call it.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class EventHandle:
    """A cancellable reference to one scheduled callback.

    The scheduler hands one of these back from ``schedule``; calling
    :meth:`cancel` marks the event dead without the cost of re-heapifying
    (lazy deletion: the scheduler skips dead events when popping).  The
    scheduler's run loop reads and clears ``_alive`` itself.
    """

    __slots__ = ("time", "seq", "fn", "args", "_alive")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: Tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self._alive = True

    @property
    def alive(self) -> bool:
        """Whether the event is still pending (not cancelled, not fired)."""
        return self._alive

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self._alive = False

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self._alive else "done"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"
