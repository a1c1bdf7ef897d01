"""Checked parsing of settings (``REPRO_*`` variables, arguments).

Every helper raises a ValueError naming the variable or argument the
bad value came from, so ``REPRO_SHARDS=four`` fails as ``REPRO_SHARDS
must be an integer, got 'four'`` instead of as a bare ``int()`` error,
a float such as ``2.5`` is rejected rather than truncated, and an
on/off switch set to ``ture`` fails instead of silently reading as off.
"""

from __future__ import annotations

import operator
import os
from typing import Union

#: Words an on/off switch accepts, compared after ``strip().lower()``.
OFF_WORDS = ("", "0", "false", "off", "no")
ON_WORDS = ("1", "true", "on", "yes")


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


def parse_bool_setting(name: str, value: str) -> bool:
    """``value`` as an on/off switch, ignoring case and surrounding
    spaces: one of :data:`ON_WORDS` is on, one of :data:`OFF_WORDS`
    (blank included) is off, and anything else raises a ValueError
    naming ``name``, so a typo never silently picks a side."""
    word = value.strip().lower()
    if word in OFF_WORDS:
        return False
    if word in ON_WORDS:
        return True
    raise ValueError(
        "%s must be one of %s (on) or %s (off), got %r"
        % (name, "/".join(ON_WORDS), "/".join(OFF_WORDS[1:]), value)
    )


def resolve_bool_env(env: str, default: bool) -> bool:
    """The switch in environment variable ``env`` (``default`` when
    unset or blank), checked by :func:`parse_bool_setting`."""
    value = os.environ.get(env, "")
    if not value.strip():
        return default
    return parse_bool_setting(env, value)
