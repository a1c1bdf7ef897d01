"""Per-client SSID selection (paper step 3, Section IV-C).

For each broadcast probe the attacker assembles at most ``burst_total``
SSIDs the client has not been offered before:

* the top ``pb_size - ghost_picks`` untried SSIDs by weight (bucket
  ``pb``);
* the ``fb_size - ghost_picks`` most recently *hit* untried SSIDs that
  the popularity head did not already take (bucket ``fb``) — the bench
  of fresh mid-tier SSIDs whose recent hits say "companions nearby";
* ``ghost_picks`` random SSIDs from each ghost list — the next
  ``ghost_size`` weight ranks (bucket ``pb_ghost``) and the next
  ``ghost_size`` recency ranks (bucket ``fb_ghost``) — displacing the
  lowest slots of the owning buffer, as the paper prescribes;
* when the freshness side cannot fill its quota (early in a run nothing
  has hit yet), further weight-ranked SSIDs top up the burst (``pb``).

The burst order is freshness first (a just-hit SSID gets first crack
at the companions who most likely share it), then the popularity head,
then the exploratory ghost picks.

Origins are resolved at *send* time: an SSID counts as ``direct`` when
the attacker first learned it from a direct probe, or observed it in one
recently (within ``DIRECT_ATTRIBUTION_WINDOW_S``) — the instrumentation
behind the paper's Fig. 6 source split, and the reason the direct-probe
contribution rises in rush hours, when probes are plentiful.
"""

from __future__ import annotations

from typing import AbstractSet, List

import numpy as np

from repro.analysis.session import SentSsid
from repro.core.adaptive import AdaptiveSplit
from repro.core.config import CityHunterConfig
from repro.core.ssid_database import SsidEntry, WeightedSsidDatabase

DIRECT_ATTRIBUTION_WINDOW_S = 420.0
"""How recently an SSID must have appeared in a direct probe to count as
direct-sourced for a WiGLE-seeded entry."""


def send_origin(entry: SsidEntry, now: float) -> str:
    """The Fig. 6 source class of one entry at send time."""
    if entry.origin == "direct":
        return "direct"
    if now - entry.last_direct_seen <= DIRECT_ATTRIBUTION_WINDOW_S:
        return "direct"
    return entry.origin


def select_for_client(
    db: WeightedSsidDatabase,
    tried: AbstractSet[str],
    split: AdaptiveSplit,
    config: CityHunterConfig,
    rng: np.random.Generator,
    now: float = 0.0,
) -> List[SentSsid]:
    """The burst of (ssid, origin, bucket) to send to one client."""
    pb_list: List[SentSsid] = []
    fb_list: List[SentSsid] = []
    chosen: List[SentSsid] = []
    chosen_ssids = set()

    def _meta(entry: SsidEntry, bucket: str) -> SentSsid:
        chosen_ssids.add(entry.ssid)
        return (entry.ssid, send_origin(entry, now), bucket)

    def take(entry: SsidEntry, bucket: str) -> None:
        chosen.append(_meta(entry, bucket))

    # --- popularity buffer head ------------------------------------------
    ranked = db.ranked()
    pb_quota = max(0, split.pb_size - config.ghost_picks)
    pb_ghost_pool: List[SsidEntry] = []
    # Where the head scan stopped: every entry below resume_i is tried,
    # in pb_list, or in pb_ghost_pool, so the top-up below never needs
    # to re-scan the ranking head.
    resume_i = len(ranked)
    for i, entry in enumerate(ranked):
        if entry.ssid in tried:
            continue
        if len(pb_list) < pb_quota:
            pb_list.append(_meta(entry, "pb"))
        elif len(pb_ghost_pool) < config.ghost_size:
            pb_ghost_pool.append(entry)
        else:
            resume_i = i
            break

    # --- freshness buffer -------------------------------------------------
    fb_quota = max(0, split.fb_size - config.ghost_picks)
    fb_ghost_pool: List[SsidEntry] = []
    for ssid in db.recent_hits():
        if ssid in tried or ssid in chosen_ssids:
            continue
        entry = db.get(ssid)
        if entry is None:
            continue
        if len(fb_list) < fb_quota:
            fb_list.append(_meta(entry, "fb"))
        elif len(fb_ghost_pool) < config.ghost_size:
            fb_ghost_pool.append(entry)
        else:
            break

    # Freshness leads the burst: a just-hit SSID gets first crack at the
    # companions who most likely share it.
    chosen.extend(fb_list)
    chosen.extend(pb_list)

    # --- ghost picks ---------------------------------------------------------
    # Both pools must exclude SSIDs the other buffer already chose: the
    # FB may have taken a mid-rank SSID that also sits in the PB ghost
    # window, and offering it twice in one burst wastes a slot (caught
    # by the burst-uniqueness property test).
    if pb_ghost_pool and config.ghost_picks:
        pool = [e for e in pb_ghost_pool if e.ssid not in chosen_ssids]
        count = min(config.ghost_picks, len(pool))
        if count:
            for i in rng.choice(len(pool), size=count, replace=False):
                take(pool[int(i)], "pb_ghost")
    if fb_ghost_pool and config.ghost_picks:
        pool = [e for e in fb_ghost_pool if e.ssid not in chosen_ssids]
        count = min(config.ghost_picks, len(pool))
        if count:
            for i in rng.choice(len(pool), size=count, replace=False):
                take(pool[int(i)], "fb_ghost")

    # --- top-up from the weight ranking -----------------------------------
    # Equivalent to re-scanning ``ranked`` from the top, but O(remaining):
    # every untried entry above resume_i is either already chosen or
    # sitting in pb_ghost_pool (in rank order), so the ghost leftovers
    # followed by the unexamined tail reproduce the full scan exactly.
    if len(chosen) < config.burst_total:
        for entry in pb_ghost_pool:
            if len(chosen) >= config.burst_total:
                break
            if entry.ssid not in chosen_ssids:
                take(entry, "pb")
        for j in range(resume_i, len(ranked)):
            if len(chosen) >= config.burst_total:
                break
            entry = ranked[j]
            if entry.ssid in tried or entry.ssid in chosen_ssids:
                continue
            take(entry, "pb")

    return chosen[: config.burst_total]
