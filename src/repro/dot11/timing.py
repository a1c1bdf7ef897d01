"""Active-scan timing model.

Implements the arithmetic of Section III-A: a client that has sent a probe
request listens ``min_channel_time`` for a first response and, once one
arrives, at most one further ``min_channel_time``; each probe response
occupies ``response_airtime`` of air.  The number of responses one AP can
land in that window is therefore bounded — the paper's "only the first 40
SSIDs can be received" ceiling, *derived* here rather than hard-coded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import (
    MIN_CHANNEL_TIME_S,
    PROBE_RESPONSE_AIRTIME_S,
)


@dataclass(frozen=True)
class ScanTiming:
    """Timing parameters of one active-scan channel visit."""

    min_channel_time: float = MIN_CHANNEL_TIME_S
    response_airtime: float = PROBE_RESPONSE_AIRTIME_S

    def __post_init__(self) -> None:
        if self.min_channel_time <= 0:
            raise ValueError("min_channel_time must be positive")
        if self.response_airtime <= 0:
            raise ValueError("response_airtime must be positive")

    @property
    def max_responses_per_scan(self) -> int:
        """How many back-to-back responses from one AP fit the window.

        With the 802.11 defaults this evaluates to 40, matching the
        paper's derivation (10 ms window / 0.25 ms per response).
        """
        return int(self.min_channel_time / self.response_airtime)

    def responses_received(self, sent: int) -> int:
        """How many of ``sent`` back-to-back responses the client receives."""
        if sent < 0:
            raise ValueError("sent must be non-negative, got %r" % sent)
        return min(sent, self.max_responses_per_scan)


DEFAULT_SCAN_TIMING = ScanTiming()
"""The 802.11 default timing used everywhere unless a test overrides it."""
