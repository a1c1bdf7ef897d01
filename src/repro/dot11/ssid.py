"""SSIDs.

An SSID is a string of at most 32 bytes.  We keep them as ``str`` (the
whole reproduction uses ASCII-ish names) with an explicit validator used
at the trust boundaries: frames entering the attacker, and each distinct
free SSID once as it enters the WiGLE registry.
"""

from __future__ import annotations

Ssid = str

MAX_SSID_BYTES = 32


def validate_ssid(ssid: str) -> str:
    """Return ``ssid`` unchanged if it is a legal SSID, else raise.

    Legal means non-empty and at most 32 bytes of UTF-8 — the 802.11
    element-length limit.
    """
    if not isinstance(ssid, str):
        raise TypeError("SSID must be a str, got %r" % type(ssid).__name__)
    if not ssid:
        raise ValueError("SSID must be non-empty")
    if len(ssid) <= MAX_SSID_BYTES and ssid.isascii():
        return ssid  # one UTF-8 byte per character: no need to encode
    if len(ssid.encode("utf-8")) > MAX_SSID_BYTES:
        raise ValueError("SSID exceeds 32 bytes: %r" % ssid)
    return ssid
