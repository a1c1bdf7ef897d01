"""The synchronous probe-stream ranking core.

:class:`RankingCore` runs the kernel the simulated attacker runs
(:class:`~repro.core.kernel.HunterKernel`) behind an event-in /
decision-out interface: feed it
:class:`~repro.serve.events.ProbeEvent` and
:class:`~repro.serve.events.FeedbackEvent` objects in stream order and
it emits :class:`~repro.serve.events.BurstDecision` objects.  Around
each kernel call it does only the
:class:`~repro.analysis.session.AttackSession` bookkeeping, in the
order :meth:`repro.attacks.base.RogueAp.receive` does it in the
simulator, and it keeps deterministic serving counters.

**Equivalence contract.**  For the same seeded database, the same RNG
stream and the same event sequence, :meth:`RankingCore.handle` produces
decisions bit-identical to the inline attacker's transmissions.  The
differential harness (``tests/test_serve_differential.py``) drives both
paths with recorded simulator streams and asserts exactly that.

The core is deliberately synchronous and single-threaded: one event, one
state transition, no awaits.  Transport (the bounded queue,
backpressure, shedding) lives in :mod:`repro.serve.service`, whose one
consumer applies events to this core in ingress order.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.session import AttackSession
from repro.core.kernel import HunterKernel
from repro.core.ssid_database import WeightedSsidDatabase
from repro.serve.events import BurstDecision, Event, FeedbackEvent, ProbeEvent


class RankingCore:
    """Per-node serving state: one shared kernel + the attack session.

    The kernel's SSID store, adaptive PB/FB split and ghost-pick RNG are
    *shared* across every client the node serves — exactly as in the
    inline attacker, where one database serves every probe the medium
    delivers.  Per-client state (untried lists, session records) is
    keyed by MAC.
    """

    def __init__(
        self, kernel: HunterKernel, session: Optional[AttackSession] = None
    ):
        self.kernel = kernel
        self.session = session if session is not None else AttackSession()
        # Deterministic serving counters (pure functions of the stream).
        self.events_handled = 0
        self.rank_cache_hits = 0
        self.rank_cache_misses = 0
        # A selection that runs with the kernel's database version
        # unchanged reuses the incremental ranking lists with zero
        # maintenance done since — the "cache hit" of the bisect-based
        # ranking.
        self._version_at_last_select = -1

    @classmethod
    def seeded(cls, *args, **kwargs) -> "RankingCore":
        """A core over :meth:`HunterKernel.seeded(*args, **kwargs)
        <repro.core.kernel.HunterKernel.seeded>`, seeded exactly like an
        inline attacker; ``seed`` is the scenario seed."""
        return cls(HunterKernel.seeded(*args, **kwargs))

    @property
    def db(self) -> WeightedSsidDatabase:
        return self.kernel.db

    def handle(self, event: Event) -> Optional[BurstDecision]:
        """Apply one event; returns the decision it produced, if any.

        Session bookkeeping first, as ``RogueAp.receive`` does, then the
        kernel handler the matching ``CityHunter`` hook calls."""
        self.events_handled += 1
        session, kernel = self.session, self.kernel
        if isinstance(event, FeedbackEvent):
            record = session.record_hit(event.mac, event.time, event.ssid)
            kernel.hit(event.ssid, record.hit_bucket, event.time)
            return None
        if not isinstance(event, ProbeEvent):
            raise TypeError("unknown event type %r" % type(event).__name__)
        mac, now, ssid, direct = event.mac, event.time, event.ssid, event.is_direct
        session.observe_probe(mac, now, direct=direct)
        if direct:
            if kernel.learn_direct(ssid, now):
                session.record_db_size(now, len(kernel.db))
            session.record_mimic(mac, now, ssid)
            return BurstDecision(mac, now, "mimic", ((ssid, "mimic", "mimic"),))
        if kernel.version == self._version_at_last_select:
            self.rank_cache_hits += 1
        else:
            self.rank_cache_misses += 1
            self._version_at_last_select = kernel.version
        metas = kernel.select(mac, now)
        if not metas:
            return None
        session.record_sent(mac, now, metas)
        return BurstDecision(mac, now, "burst", tuple(metas))

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic serving counters (pure functions of the stream)."""
        split = self.kernel.split
        return {
            "events_handled": self.events_handled,
            "db_size": len(self.kernel.db),
            "clients": len(self.session.clients),
            "rank_cache_hits": self.rank_cache_hits,
            "rank_cache_misses": self.rank_cache_misses,
            "pb_size": split.pb_size,
            "fb_size": split.fb_size,
        }
