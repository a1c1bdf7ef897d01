"""Deterministic name generation for synthetic SSIDs.

The synthetic city needs thousands of plausible SSIDs: home routers with
vendor-default names, small shops, corporate networks, and the handful of
well-known chains and hot-area networks the paper calls out by name
(``7-Eleven Free Wifi``, ``#HKAirport Free WiFi`` …).  Everything here is a
pure function of the supplied RNG so city generation stays reproducible.
"""

from __future__ import annotations

from typing import List

import numpy as np

_ROUTER_VENDORS = [
    "TP-LINK",
    "D-Link",
    "NETGEAR",
    "Linksys",
    "ASUS",
    "Xiaomi",
    "HUAWEI",
    "Tenda",
    "Buffalo",
    "ZyXEL",
]

_SHOP_WORDS_A = [
    "Golden",
    "Lucky",
    "Happy",
    "Star",
    "Sunny",
    "Royal",
    "Ocean",
    "Jade",
    "Pearl",
    "Dragon",
    "Harbour",
    "Garden",
    "Phoenix",
    "Silver",
    "Grand",
]

_SHOP_WORDS_B = [
    "Cafe",
    "Noodle",
    "Tea",
    "Books",
    "Salon",
    "Bakery",
    "Dental",
    "Tailor",
    "Pharmacy",
    "Electronics",
    "Fashion",
    "Kitchen",
    "Studio",
    "Mart",
    "House",
]

_CORP_WORDS = [
    "Corp",
    "Office",
    "Staff",
    "Guest",
    "Internal",
    "HQ",
    "Lab",
    "Admin",
]


def home_router_ssid(rng: np.random.Generator) -> str:
    """A vendor-default home-router SSID like ``TP-LINK_3F2A``."""
    vendor = _ROUTER_VENDORS[int(rng.integers(len(_ROUTER_VENDORS)))]
    suffix = "".join(
        "0123456789ABCDEF"[d] for d in rng.integers(0, 16, size=4).tolist()
    )
    return f"{vendor}_{suffix}"


def shop_ssid(rng: np.random.Generator) -> str:
    """A small-business SSID like ``Lucky Noodle WiFi``."""
    a = _SHOP_WORDS_A[int(rng.integers(len(_SHOP_WORDS_A)))]
    b = _SHOP_WORDS_B[int(rng.integers(len(_SHOP_WORDS_B)))]
    style = int(rng.integers(3))
    if style == 0:
        return f"{a} {b} WiFi"
    if style == 1:
        return f"{a}{b}"
    return f"{a} {b} Free WiFi"


def corporate_ssid(rng: np.random.Generator) -> str:
    """A corporate SSID like ``Pearl-Corp`` (usually secured)."""
    a = _SHOP_WORDS_A[int(rng.integers(len(_SHOP_WORDS_A)))]
    b = _CORP_WORDS[int(rng.integers(len(_CORP_WORDS)))]
    return f"{a}-{b}"


def unique_names(count: int, maker, rng: np.random.Generator) -> List[str]:
    """Draw ``count`` *distinct* names using ``maker(rng)``.

    Collisions are resolved by appending a counter (truncating the base
    name so the result stays within the 32-byte SSID limit), so the
    function always terminates and always returns exactly ``count`` names.
    """
    if count < 0:
        raise ValueError("count must be non-negative, got %r" % count)
    seen = set()
    out: List[str] = []
    attempts = 0
    while len(out) < count:
        name = maker(rng)
        attempts += 1
        if name in seen and attempts > 2 * count:
            suffix = f"-{len(out)}"
            name = name[: 32 - len(suffix)] + suffix
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out
