"""Deterministic name generation for synthetic SSIDs.

The synthetic city needs thousands of plausible SSIDs: home routers with
vendor-default names, small shops, corporate networks, and the handful of
well-known chains and hot-area networks the paper calls out by name
(``7-Eleven Free Wifi``, ``#HKAirport Free WiFi`` …).  Everything here is a
pure function of the supplied RNG so city generation stays reproducible.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

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


class NameMaker:
    """Names composed from one draw of bounded integers.

    ``maker(rng)`` draws one name with one ``rng.integers(0, bounds)``
    call and ``maker.draw(rng, n)`` draws ``n`` names with one call.
    For bounds below 2**32 numpy draws every element as one Lemire step
    on the generator's 32-bit stream, so both take, in order, the bits
    that one scalar ``rng.integers(bound)`` per bound would.
    """

    def __init__(self, bounds: Sequence[int], compose: Callable[..., str]):
        self.bounds = np.array(bounds, dtype=np.int64)
        self.compose = compose

    def __call__(self, rng: np.random.Generator) -> str:
        return self.compose(*rng.integers(0, self.bounds).tolist())

    def draw(self, rng: np.random.Generator, n: int) -> List[str]:
        """``n`` names from one ``rng.integers`` call."""
        rows = rng.integers(0, np.tile(self.bounds, n)).reshape(n, -1)
        return [self.compose(*row) for row in rows.tolist()]


_HEX = "0123456789ABCDEF"


def _router_name(vendor: int, a: int, b: int, c: int, d: int) -> str:
    return f"{_ROUTER_VENDORS[vendor]}_{_HEX[a]}{_HEX[b]}{_HEX[c]}{_HEX[d]}"


def _shop_name(a: int, b: int, style: int) -> str:
    first, second = _SHOP_WORDS_A[a], _SHOP_WORDS_B[b]
    if style == 0:
        return f"{first} {second} WiFi"
    if style == 1:
        return f"{first}{second}"
    return f"{first} {second} Free WiFi"


home_router_ssid = NameMaker((len(_ROUTER_VENDORS), 16, 16, 16, 16), _router_name)
"""A vendor-default home-router SSID like ``TP-LINK_3F2A``."""

shop_ssid = NameMaker((len(_SHOP_WORDS_A), len(_SHOP_WORDS_B), 3), _shop_name)
"""A small-business SSID like ``Lucky Noodle WiFi``."""


def corporate_ssid(rng: np.random.Generator) -> str:
    """A corporate SSID like ``Pearl-Corp`` (usually secured)."""
    a = _SHOP_WORDS_A[int(rng.integers(len(_SHOP_WORDS_A)))]
    b = _CORP_WORDS[int(rng.integers(len(_CORP_WORDS)))]
    return f"{a}-{b}"


def unique_names(count: int, maker: NameMaker, rng: np.random.Generator) -> List[str]:
    """Draw ``count`` *distinct* names using ``maker``.

    Collisions are resolved by appending a counter (truncating the base
    name so the result stays within the 32-byte SSID limit), so the
    function always terminates and always returns exactly ``count`` names.
    Attempts are drawn in blocks of the names still missing: each
    attempt adds at most one name, so a block never draws past where
    one attempt at a time would stop.
    """
    if count < 0:
        raise ValueError("count must be non-negative, got %r" % count)
    seen = set()
    out: List[str] = []
    attempts = 0
    while len(out) < count:
        for name in maker.draw(rng, count - len(out)):
            attempts += 1
            if name in seen and attempts > 2 * count:
                suffix = f"-{len(out)}"
                name = name[: 32 - len(suffix)] + suffix
            if name not in seen:
                seen.add(name)
                out.append(name)
    return out
