"""Deterministic random-number management.

Every experiment in the reproduction is driven by a single integer seed.
That seed is fanned out into *named* substreams (``"population"``,
``"mobility"``, ``"medium"`` …) so that adding randomness to one subsystem
never perturbs the draws of another — a property the calibration tests
rely on.

The fan-out uses SHA-256 over ``(seed, name)`` which is stable across
Python versions and platforms (unlike ``hash()``).
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from typing import Dict, List, Sequence

import numpy as np


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    The derivation is deterministic, platform independent, and
    collision-resistant for all practical purposes.
    """
    payload = f"{master_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def choice_cdf(probs: Sequence[float], name: str) -> List[float]:
    """The cdf that ``Generator.choice(len(probs), p=probs / sum(probs))``
    searches, as a list: normalised, cumulated and divided by its last
    element, as numpy does.  :func:`draw_index` over it takes the same
    double from the stream and returns the same index as that call.

    Raises ValueError naming ``name`` unless ``probs`` is a non-empty,
    finite, non-negative vector with a positive sum: over a NaN cdf a
    bisection would pick the last index without complaint.
    """
    p = np.asarray(probs, dtype=float)
    total = float(p.sum()) if p.ndim == 1 and p.size else math.nan
    if not (np.isfinite(p).all() and (p >= 0).all() and 0 < total < math.inf):
        raise ValueError(
            "%s must be a non-empty vector of finite, non-negative "
            "probabilities, not all zero; got %r" % (name, p.tolist())
        )
    cdf = (p / total).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_index(cdf: Sequence[float], rng: np.random.Generator) -> int:
    """One index drawn over a :func:`choice_cdf` cdf: bit for bit the
    ``Generator.choice`` draw, without its per-call validation."""
    return bisect_right(cdf, rng.random())


class RngRegistry:
    """A factory of named, independent ``numpy.random.Generator`` streams.

    >>> rngs = RngRegistry(seed=7)
    >>> a = rngs.stream("population")
    >>> b = rngs.stream("mobility")
    >>> a is rngs.stream("population")   # streams are cached
    True

    Streams with different names are statistically independent; the same
    name always yields the same (single) generator instance.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, int):
            raise TypeError("seed must be an int, got %r" % type(seed).__name__)
        self._seed = seed
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this registry fans out."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            child = derive_seed(self._seed, name)
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name``, resetting any cached one.

        Useful when an experiment re-initialises a subsystem mid-run (the
        paper re-initialises the attacker database before every test).
        """
        child = derive_seed(self._seed, name)
        self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def child(self, name: str) -> "RngRegistry":
        """Derive a whole child registry, e.g. one per repeated trial."""
        return RngRegistry(derive_seed(self._seed, name))


class BufferedUniform:
    """Batched uniform draws, bit-identical to scalar ``rng.random()``.

    ``Generator.random(size=n)`` consumes the underlying bit stream
    exactly like ``n`` scalar ``random()`` calls, so serving scalars out
    of a refilled block yields the *same values in the same order* while
    amortising the per-call generator overhead — the medium's per-frame
    loss draws are the hot consumer.

    Only safe for a stream with a single consumer: refilling draws ahead
    of demand, so interleaving other draw kinds on the same generator
    would observe an advanced stream state.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos")

    def __init__(self, rng: np.random.Generator, block: int = 256):
        if block < 1:
            raise ValueError("block size must be >= 1, got %r" % block)
        self._rng = rng
        self._block = block
        self._buf = None  # filled on first draw: idle consumers cost nothing
        self._pos = block

    def next(self) -> float:
        """The next uniform [0, 1) draw from the wrapped stream."""
        if self._pos >= self._block:
            self._buf = self._rng.random(self._block)
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value
