"""LiteHunter: a per-sensor PB/FB buffer core for the shard engine.

A district shard drives this small core per sensor from plain
probe/feedback records, where :class:`~repro.core.hunter.CityHunter`
runs the paper's loop (:class:`~repro.core.kernel.HunterKernel`) over
frames.  LiteHunter keeps two buffers and an untried list per walker:

* **PB** (popularity buffer): the SSID universe ranked by weight,
  starting from a fixed popularity order (SSID 0 most popular) and
  bumped by every observed hit.
* **FB** (freshness buffer): most-recent hit SSIDs first, capped.

It has no ghost lists, no adaptive PB/FB split, no WiGLE seeding and no
direct-probe harvest, so sharded runs exercise the engine, not the
paper's attacker.

A burst for a walker takes FB entries first, then the PB top — skipping
everything already sent to that walker.  All state is integer-valued
and updated only from sorted handoff records, which makes the evolution
— and :meth:`state` — bit-comparable across shard counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

BUCKET_POPULARITY = "P"
BUCKET_FRESHNESS = "F"


class LiteHunter:
    """Per-sensor probe→burst→feedback core with PB/FB buffers."""

    __slots__ = (
        "universe", "pb_size", "fb_size", "burst_size", "weights", "order", "fb", "sent"
    )

    def __init__(self, universe: int, pb_size: int, fb_size: int, burst_size: int):
        self.universe = universe
        self.pb_size = pb_size
        self.fb_size = fb_size
        self.burst_size = burst_size
        # Initial weight U-s keeps the seeded order = popularity order.
        self.weights: List[int] = [universe - s for s in range(universe)]
        self.order: List[int] = list(range(universe))  # sorted by (-weight, ssid)
        self.fb: List[int] = []
        self.sent: Dict[int, Dict[int, str]] = {}

    def burst_for(self, walker: int) -> Tuple[int, ...]:
        """Next SSID burst for ``walker``: FB first, then the PB top,
        never repeating an SSID already sent to this walker."""
        sent = self.sent.setdefault(walker, {})
        out: List[int] = []
        for ssid in self.fb:
            if len(out) >= self.burst_size:
                break
            if ssid not in sent:
                sent[ssid] = BUCKET_FRESHNESS
                out.append(ssid)
        if len(out) < self.burst_size:
            for ssid in self.order[: self.pb_size]:
                if len(out) >= self.burst_size:
                    break
                if ssid not in sent:
                    sent[ssid] = BUCKET_POPULARITY
                    out.append(ssid)
        return tuple(out)

    def feedback(self, walker: int, ssid: int) -> Optional[str]:
        """Record a hit: bump the SSID's weight, refresh FB; returns the
        buffer the winning SSID was offered from (hit attribution)."""
        bucket = self.sent.get(walker, {}).get(ssid)
        w = self.weights[ssid] + 1
        self.weights[ssid] = w
        self.order.remove(ssid)
        key = (-w, ssid)
        lo, hi = 0, len(self.order)
        while lo < hi:
            mid = (lo + hi) // 2
            other = self.order[mid]
            if (-self.weights[other], other) < key:
                lo = mid + 1
            else:
                hi = mid
        self.order.insert(lo, ssid)
        if ssid in self.fb:
            self.fb.remove(ssid)
        self.fb.insert(0, ssid)
        del self.fb[self.fb_size :]
        return bucket

    def untried(self, walker: int) -> frozenset:
        """SSIDs not yet offered to ``walker`` (the shrinking untried list)."""
        sent = self.sent.get(walker)
        if not sent:
            return frozenset(range(self.universe))
        return frozenset(s for s in range(self.universe) if s not in sent)

    def state(self):
        """Canonical, hashable full state — plain ints/tuples only, so
        digests compare across shard counts and processes."""
        return (
            tuple(self.weights),
            tuple(self.order),
            tuple(self.fb),
            tuple(
                (walker, tuple(sorted(sent.items())))
                for walker, sent in sorted(self.sent.items())
            ),
        )

    @classmethod
    def restore(
        cls,
        universe: int,
        pb_size: int,
        fb_size: int,
        burst_size: int,
        state,
    ) -> "LiteHunter":
        """Rebuild a hunter from a :meth:`state` tuple (checkpoint path).

        Round-trip contract: ``restore(..., h.state()).state() ==
        h.state()`` exactly, so recovered runs replay bit-identically.
        """
        weights, order, fb, sent = state
        hunter = cls(universe, pb_size, fb_size, burst_size)
        hunter.weights = list(weights)
        hunter.order = list(order)
        hunter.fb = list(fb)
        hunter.sent = {walker: dict(items) for walker, items in sent}
        return hunter
