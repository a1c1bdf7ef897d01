"""Structured trace of simulation happenings.

Entities append :class:`TraceRecord` rows (time, kind, subject, detail);
tests and the analysis layer consume them.  The trace is a *ring
buffer*: once ``max_records`` rows are held, the oldest fall off and are
tallied in :attr:`Trace.dropped`, so tracing can stay enabled even for
the large Fig. 5 sweeps (which previously required switching it off to
avoid holding millions of rows).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.util.settings import resolve_int_env

DEFAULT_MAX_RECORDS = 1_000_000
"""Generous default cap — a 30-minute canteen run emits a few thousand
rows, so only the multi-hour sweep grids ever approach it."""

TRACE_MAX_ENV = "REPRO_TRACE_MAX"


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace row."""

    time: float
    kind: str
    subject: str
    detail: str = ""


class Trace:
    """Bounded in-memory trace with simple filtering.

    The pre-ring API (``emit`` / ``of_kind`` / ``counts_by_kind`` /
    ``last`` / iteration / ``len``) is unchanged; ``max_records`` and
    ``dropped`` are additive.
    """

    def __init__(self, enabled: bool = True, max_records: Optional[int] = None):
        if max_records is None:
            max_records = resolve_int_env(TRACE_MAX_ENV, DEFAULT_MAX_RECORDS, 1)
        if max_records < 1:
            raise ValueError("max_records must be >= 1, got %r" % max_records)
        self.enabled = enabled
        self.max_records = max_records
        self._records: "deque[TraceRecord]" = deque(maxlen=max_records)
        self.dropped = 0

    def emit(self, time: float, kind: str, subject: str, detail: str = "") -> None:
        """Append a record (no-op when the trace is disabled)."""
        if self.enabled:
            if len(self._records) == self.max_records:
                self.dropped += 1
            self._records.append(TraceRecord(time, kind, subject, detail))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All retained records of one kind, in emission order."""
        return [r for r in self._records if r.kind == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        """Histogram of retained record kinds."""
        return dict(Counter(r.kind for r in self._records))

    def between(self, t0: float, t1: float) -> List[TraceRecord]:
        """Retained records with ``t0 <= time < t1``, in emission order."""
        return [r for r in self._records if t0 <= r.time < t1]

    def last(self, kind: Optional[str] = None) -> Optional[TraceRecord]:
        """Most recent record, optionally restricted to one kind."""
        if kind is None:
            return self._records[-1] if self._records else None
        for r in reversed(self._records):
            if r.kind == kind:
                return r
        return None
