"""Checked parsing of numeric settings (``REPRO_*`` variables, arguments).

Every helper raises a ValueError naming the variable or argument the
bad value came from, so ``REPRO_SHARDS=four`` fails as ``REPRO_SHARDS
must be an integer, got 'four'`` instead of as a bare ``int()`` error,
and a float such as ``2.5`` is rejected rather than truncated.
"""

from __future__ import annotations

import operator
import os
from typing import Union


def parse_int_setting(name: str, value: Union[str, int], minimum: int) -> int:
    """``value`` as an integer of at least ``minimum``; anything else
    raises a ValueError naming ``name``, the variable it came from."""
    try:
        parsed = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise ValueError("%s must be an integer, got %r" % (name, value)) from None
    if parsed < minimum:
        raise ValueError("%s must be >= %d, got %r" % (name, minimum, parsed))
    return parsed


def resolve_int_env(env: str, default: int, minimum: int) -> int:
    """The integer in environment variable ``env`` (``default`` when
    unset or blank), checked by :func:`parse_int_setting`."""
    value = os.environ.get(env, "").strip()
    if not value:
        return default
    return parse_int_setting(env, value, minimum)


def parse_float_setting(name: str, value: Union[str, float]) -> float:
    """``value`` as a float; anything else raises a ValueError naming
    ``name``.  Range checks are the caller's."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError("%s must be a number, got %r" % (name, value)) from None
