"""Physical units and 802.11 timing constants used across the simulator.

All simulation time is expressed in seconds (float).  The constants below
encode the scan-timing arithmetic the paper relies on (Section III-A):

* after sending a probe request a client listens for ``MIN_CHANNEL_TIME``
  (about 10 ms) for a first response, then at most one further
  ``MIN_CHANNEL_TIME`` window after the first response arrives;
* one probe response occupies the air for about 0.25 ms ([13] in the
  paper), so a client can receive roughly ``10 ms / 0.25 ms = 40``
  responses from a single AP in one scan round.

``MAX_RESPONSES_PER_SCAN`` is therefore *derived*, not hand-picked: it is
the same ceiling the paper derives and is recomputed from the two timing
constants so the dependency is explicit in code.
"""

US = 1e-6
"""One microsecond in seconds."""

MS = 1e-3
"""One millisecond in seconds."""

MINUTE = 60.0
"""One minute in seconds."""

HOUR = 3600.0
"""One hour in seconds."""

MIN_CHANNEL_TIME_S = 10 * MS
"""802.11 active-scan MinChannelTime: how long a client waits for the first
probe response after probing a channel."""

MAX_CHANNEL_TIME_S = 2 * MIN_CHANNEL_TIME_S
"""Upper bound of the listening window once at least one response arrived."""

PROBE_RESPONSE_AIRTIME_S = 0.25 * MS
"""Airtime of a single probe response frame (Castignani et al., cited as
[13] in the paper)."""

MAX_RESPONSES_PER_SCAN = int(MIN_CHANNEL_TIME_S / PROBE_RESPONSE_AIRTIME_S)
"""How many probe responses from one AP fit into a client's listening
window: the famous "only the first 40 SSIDs are received" ceiling."""

PROBE_REQUEST_AIRTIME_S = 0.15 * MS
"""Airtime of a probe request frame (shorter: no SSID list payload)."""

MANAGEMENT_FRAME_AIRTIME_S = 0.2 * MS
"""Airtime for auth/assoc/deauth management frames."""


def db_from_mw(milliwatts: float) -> float:
    """Convert a power in milliwatts to dBm."""
    import math

    if milliwatts <= 0:
        raise ValueError("power must be positive, got %r" % milliwatts)
    return 10.0 * math.log10(milliwatts)
