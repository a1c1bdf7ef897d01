"""Buffered structured-event sink on a bounded ring.

The sink keeps low-frequency, *structured* events (phase spans, PB/FB
swaps, deauth cycles) as dicts, capped so it can stay enabled during
the full Fig. 5 sweeps.  The executor ships each run's events in its
result, and ``repro obs events`` exports them as JSON Lines.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.records import Ring

DEFAULT_MAX_EVENTS = 65_536


class EventSink(Ring):
    """Capped, append-only store of timestamped event dicts."""

    def __init__(self):
        super().__init__(DEFAULT_MAX_EVENTS)

    def emit(self, time: float, kind: str, **fields: object) -> None:
        """Record one event."""
        self.append({"time": time, "kind": kind, **fields})

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        """Retained events of one kind, oldest first."""
        return [e for e in self._ring if e.get("kind") == kind]
