"""Management frame types.

Only the fields the attacks actually read are modelled; frames are
``__slots__`` classes because the big Fig. 5 sweeps create millions of
them.  ``src``/``dst`` are MAC strings; ``dst`` may be the broadcast
address.
"""

from __future__ import annotations

from typing import Optional

from repro.dot11.capabilities import Security
from repro.dot11.mac import BROADCAST_MAC, MacAddress
from repro.dot11.ssid import Ssid


class Frame:
    """Base class for all management frames."""

    __slots__ = ("src", "dst")

    kind = "frame"

    def __init__(self, src: MacAddress, dst: MacAddress = BROADCAST_MAC):
        self.src = src
        self.dst = dst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.src} -> {self.dst}>"


class Beacon(Frame):
    """Periodic AP announcement."""

    __slots__ = ("ssid", "security", "channel")

    kind = "beacon"

    def __init__(
        self,
        src: MacAddress,
        ssid: Ssid,
        security: Security = Security.OPEN,
        channel: int = 6,
    ):
        super().__init__(src, BROADCAST_MAC)
        self.ssid = ssid
        self.security = security
        self.channel = channel


class ProbeRequest(Frame):
    """Client scan probe.

    ``ssid is None`` means a *broadcast* probe (wildcard SSID element) —
    the modern, privacy-preserving kind.  A non-None ``ssid`` is a
    *direct* probe revealing one PNL entry, the kind KARMA feeds on.
    ``channel`` is the channel the probe was transmitted on; an AP only
    hears probes on its own channel.
    """

    __slots__ = ("ssid", "channel")

    kind = "probe_req"

    def __init__(
        self, src: MacAddress, ssid: Optional[Ssid] = None, channel: int = 6
    ):
        super().__init__(src, BROADCAST_MAC)
        self.ssid = ssid
        self.channel = channel

    @property
    def is_broadcast_probe(self) -> bool:
        """True for a wildcard (SSID-less) probe request."""
        return self.ssid is None


class ProbeResponse(Frame):
    """AP (or evil twin) reply advertising one SSID.

    Its ``__init__`` fills the base slots itself: an attacker builds one
    response per SSID of each 40-SSID burst, and the ``super()`` call
    was about 40 % of building one."""

    __slots__ = ("ssid", "security", "channel")

    kind = "probe_resp"

    def __init__(
        self,
        src: MacAddress,
        dst: MacAddress,
        ssid: Ssid,
        security: Security = Security.OPEN,
        channel: int = 6,
    ):
        self.src = src
        self.dst = dst
        self.ssid = ssid
        self.security = security
        self.channel = channel


class AuthRequest(Frame):
    """Open-system authentication, first frame."""

    __slots__ = ()

    kind = "auth_req"


class AuthResponse(Frame):
    """Open-system authentication, second frame."""

    __slots__ = ("success",)

    kind = "auth_resp"

    def __init__(self, src: MacAddress, dst: MacAddress, success: bool = True):
        super().__init__(src, dst)
        self.success = success


class AssocRequest(Frame):
    """Association request to an SSID the client decided to join."""

    __slots__ = ("ssid",)

    kind = "assoc_req"

    def __init__(self, src: MacAddress, dst: MacAddress, ssid: Ssid):
        super().__init__(src, dst)
        self.ssid = ssid


class AssocResponse(Frame):
    """Association response completing the join."""

    __slots__ = ("ssid", "success")

    kind = "assoc_resp"

    def __init__(
        self, src: MacAddress, dst: MacAddress, ssid: Ssid, success: bool = True
    ):
        super().__init__(src, dst)
        self.ssid = ssid
        self.success = success


class Deauth(Frame):
    """De-authentication frame (spoofable; used by the Sec. V-B extension)."""

    __slots__ = ("reason",)

    kind = "deauth"

    def __init__(self, src: MacAddress, dst: MacAddress, reason: int = 7):
        super().__init__(src, dst)
        self.reason = reason
