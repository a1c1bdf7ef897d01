"""Stateless counter-based RNG for the sharded city.

The ordinary :class:`~repro.util.rng.RngRegistry` streams are stateful:
the value of draw *n* depends on every draw before it, so two shards
could never agree on a walker's parameters without replaying the exact
global draw order.  The shard engine instead derives every random
quantity as a *pure function* ``u01(base, ident, counter)`` — a
splitmix64-style hash of (stream base, entity id, draw counter) mapped
to [0, 1).  Any shard can derive any walker's spawn time, path or PNL
without coordination, which is the foundation of the bit-identical
shard-count invariance.

The vector form (:func:`u01_vec`) exists for batch derivation and is
pinned by tests to produce exactly the same floats as the scalar form:
the hash pipeline is pure 64-bit integer arithmetic (numpy ``uint64``
wraps exactly like the masked Python ints) and the final mapping
``(h >> 11) * 2**-53`` is exact in both forms.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import derive_seed

_MASK = (1 << 64) - 1
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_ID_SALT = 0x9E3779B97F4A7C15
_CTR_SALT = 0xD1B54A32D192ED03
_U53 = 2.0**-53


def stream_base(seed: int, purpose: str) -> int:
    """64-bit stream base for one (scenario seed, purpose) pair.

    Uses the same SHA-256 fan-out as the registry streams, so shard
    purposes can never collide with each other or with the event-driven
    simulator's named streams.
    """
    return derive_seed(seed, "shards:" + purpose)


def mix64(x: int) -> int:
    """The splitmix64 finaliser over a masked 64-bit integer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def hash64(base: int, ident: int, counter: int) -> int:
    """Stateless 64-bit hash of (stream base, entity id, draw counter)."""
    key = (ident * _ID_SALT ^ counter * _CTR_SALT) & _MASK
    return mix64(base ^ mix64(key))


def u01(base: int, ident: int, counter: int) -> float:
    """Uniform [0, 1) draw as a pure function of its three arguments."""
    return (hash64(base, ident, counter) >> 11) * _U53


def u01_vec(base: int, idents, counter: int):
    """Vectorised :func:`u01` over an array of entity ids.

    Bit-identical to the scalar path (asserted by tests).
    """
    ids = np.asarray(idents, dtype=np.uint64)
    key = ids * np.uint64(_ID_SALT) ^ np.uint64((counter * _CTR_SALT) & _MASK)
    key = _mix64_vec(key)
    h = _mix64_vec(np.uint64(base) ^ key)
    return (h >> np.uint64(11)).astype(np.float64) * _U53


def _mix64_vec(x):
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))

