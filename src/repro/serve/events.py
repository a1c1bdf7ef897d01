"""The serving layer's wire types.

A probe-request capture pipeline delivers two kinds of facts to an
attacker node: *probe events* (a client scanned — broadcast, or direct
with an SSID) and *feedback events* (a client associated to one of the
SSIDs we advertised).  The service answers probe events with *burst
decisions* — the PB/FB/ghost SSID burst of the paper's step 3, or a
KARMA-style mimic for a direct probe — and consumes feedback events
silently (they update the ranking, Section IV step 2).

Events and decisions are frozen dataclasses, so nothing downstream of
the queue can mutate them.  A decision carries its SSIDs as plain
``(ssid, origin, bucket)`` tuples
(:data:`~repro.analysis.session.SentSsid`, which says why they are not
records).  The differential harness compares decision sequences with
plain ``==``, and :meth:`BurstDecision.as_row` is the canonical JSON
form that digests and exports use.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

from repro.analysis.session import SentSsid


@dataclass(frozen=True)
class ProbeEvent:
    """One probe request: broadcast (``ssid is None``) or direct."""

    mac: str
    time: float
    ssid: Optional[str] = None

    @property
    def is_direct(self) -> bool:
        return self.ssid is not None


@dataclass(frozen=True)
class FeedbackEvent:
    """One association: ``mac`` connected to an evil twin of ``ssid``."""

    mac: str
    time: float
    ssid: str


Event = Union[ProbeEvent, FeedbackEvent]


@dataclass(frozen=True)
class BurstDecision:
    """One outgoing answer: a response burst or a mimic reflection.

    ``ssids`` carries the full per-SSID provenance as
    ``(ssid, origin, bucket)`` tuples
    (:data:`~repro.analysis.session.SentSsid`) in send order — the
    exact payload the inline simulator's
    :meth:`~repro.attacks.base.RogueAp.send_ssid_burst` transmits, which
    is what makes decision sequences comparable bit-for-bit.
    """

    mac: str
    time: float
    kind: str  # "burst" | "mimic"
    ssids: Tuple[SentSsid, ...]

    def as_row(self) -> list:
        """Canonical JSON-serialisable form (digests, exports, diffs)."""
        return [
            self.mac,
            self.time,
            self.kind,
            [list(sent) for sent in self.ssids],
        ]


def decisions_digest(decisions: Iterable[BurstDecision]) -> str:
    """SHA-256 over the canonical decision sequence.

    Two decision streams are bit-identical iff their digests match —
    the compact form the replay-determinism tests and the ``serve
    replay`` CLI print.
    """
    h = hashlib.sha256()
    for d in decisions:
        h.update(json.dumps(d.as_row(), sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def decisions_by_client(
    decisions: Iterable[BurstDecision],
) -> dict:
    """mac -> that client's decision sequence, in stream order."""
    out: dict = {}
    for d in decisions:
        out.setdefault(d.mac, []).append(d)
    return out


def decision_rows(decisions: Iterable[BurstDecision]) -> List[list]:
    """Canonical rows for a whole stream (JSONL export payload)."""
    return [d.as_row() for d in decisions]
