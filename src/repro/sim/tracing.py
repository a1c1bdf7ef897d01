"""Structured trace of simulation happenings.

Entities append :class:`TraceRecord` rows (time, kind, subject, detail);
tests and the analysis layer consume them.  The trace is a bounded
:class:`~repro.obs.records.Ring`, so it can stay enabled even for the
large Fig. 5 sweeps: once ``max_records`` rows are held, the oldest fall
off and are tallied in ``dropped``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.records import Ring
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


class Trace(Ring):
    """Bounded in-memory trace with simple filtering."""

    def __init__(self, enabled: bool = True, max_records: Optional[int] = None):
        if max_records is None:
            max_records = resolve_int_env(TRACE_MAX_ENV, DEFAULT_MAX_RECORDS, 1)
        super().__init__(max_records, enabled)

    def emit(self, time: float, kind: str, subject: str, detail: str = "") -> None:
        """Append a record (no-op when the trace is disabled)."""
        if self.enabled:
            self.append(TraceRecord(time, kind, subject, detail))

    def of_kind(self, kind: str) -> List[TraceRecord]:
        """All retained records of one kind, in emission order."""
        return [r for r in self._ring if r.kind == kind]

    def counts_by_kind(self) -> Dict[str, int]:
        """Histogram of retained record kinds."""
        return dict(Counter(r.kind for r in self._ring))

    def between(self, t0: float, t1: float) -> List[TraceRecord]:
        """Retained records with ``t0 <= time < t1``, in emission order."""
        return [r for r in self._ring if t0 <= r.time < t1]

    def last(self, kind: Optional[str] = None) -> Optional[TraceRecord]:
        """Most recent record, optionally restricted to one kind."""
        if kind is None:
            return self._ring[-1] if self._ring else None
        for r in reversed(self._ring):
            if r.kind == kind:
                return r
        return None
