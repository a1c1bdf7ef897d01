"""Propagation models for the radio medium.

The default :class:`DiscPropagation` is the classic unit-disc model the
experiments are calibrated against.  :class:`LogDistanceShadowing` adds
the standard log-distance path-loss with lognormal shadowing, giving a
soft coverage edge: delivery probability decays with distance instead of
cutting off.  Both answer one question — *does this frame, sent with
this nominal range, reach a receiver at this distance?*
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np


class Propagation(Protocol):
    """Decides frame delivery as a function of distance."""

    deterministic: bool
    """True when :meth:`delivered` never consumes the RNG.  On a lossless
    channel the medium may then check a probe request against the
    stations that hear it only, without perturbing the draw sequence;
    with a stochastic model every station consumes its draw in attach
    order."""

    def delivered(
        self, distance: float, tx_range: float, rng: np.random.Generator
    ) -> bool:
        """Whether a frame crosses ``distance`` given nominal ``tx_range``."""
        ...


class DiscPropagation:
    """Deterministic unit-disc coverage: in range = delivered."""

    deterministic = True

    def delivered(
        self, distance: float, tx_range: float, rng: np.random.Generator
    ) -> bool:
        return distance <= tx_range


class LogDistanceShadowing:
    """Log-distance path loss with lognormal shadowing.

    The nominal ``tx_range`` is interpreted as the distance at which the
    median received power sits exactly at the decoding threshold; the
    delivery probability at distance ``d`` is then

    ``P = Q((10 * n * log10(d / tx_range)) / sigma)``

    with path-loss exponent ``n`` and shadowing deviation ``sigma`` (dB).
    At ``d = tx_range`` delivery is a coin flip; well inside it is
    near-certain; the transition width scales with ``sigma / n``.
    """

    deterministic = False

    def __init__(self, exponent: float = 3.0, sigma_db: float = 4.0):
        if exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if sigma_db <= 0:
            raise ValueError("shadowing sigma must be positive")
        self.exponent = exponent
        self.sigma_db = sigma_db

    def _delivery_probability(self, distance: float, tx_range: float) -> float:
        if distance <= 0:
            return 1.0
        margin_db = -10.0 * self.exponent * math.log10(distance / tx_range)
        # Q-function via erfc.
        return 0.5 * math.erfc(-margin_db / (self.sigma_db * math.sqrt(2.0)))

    def delivered(
        self, distance: float, tx_range: float, rng: np.random.Generator
    ) -> bool:
        return rng.random() < self._delivery_probability(distance, tx_range)
