"""Tests for per-client SSID selection (repro.core.selection)."""

import numpy as np

from repro.core.adaptive import AdaptiveSplit
from repro.core.config import CityHunterConfig
from repro.core.selection import (
    DIRECT_ATTRIBUTION_WINDOW_S,
    select_for_client,
    send_origin,
)
from repro.core.ssid_database import SsidEntry, WeightedSsidDatabase


def _db(n=120):
    db = WeightedSsidDatabase()
    for i in range(n):
        db.add(f"ssid-{i:03d}", float(n - i), "wigle")
    return db


def _select(db, tried=frozenset(), split=None, config=None, seed=0, now=0.0):
    split = split or AdaptiveSplit(total=40, initial_pb=28)
    config = config or CityHunterConfig()
    rng = np.random.default_rng(seed)
    return select_for_client(db, tried, split, config, rng, now=now)


class TestBurstComposition:
    def test_exactly_forty_when_db_is_deep(self):
        assert len(_select(_db())) == 40

    def test_no_duplicates(self):
        metas = _select(_db())
        ssids = [ssid for ssid, _, _ in metas]
        assert len(ssids) == len(set(ssids))

    def test_never_resends_tried(self):
        db = _db()
        tried = {f"ssid-{i:03d}" for i in range(20)}
        metas = _select(db, tried)
        assert not tried & {ssid for ssid, _, _ in metas}

    def test_pb_quota_honoured(self):
        metas = _select(_db())
        pb = [ssid for ssid, _, bucket in metas if bucket == "pb"]
        # No FB content yet: quota plus top-up fill, all weight-ordered.
        assert len(pb) >= 26

    def test_pb_in_weight_order(self):
        metas = _select(_db())
        pb = [ssid for ssid, _, bucket in metas if bucket == "pb"]
        head = [m for m in pb if m.startswith("ssid-0")]
        assert head == sorted(head)

    def test_ghost_picks_present_and_from_ghost_range(self):
        split = AdaptiveSplit(total=40, initial_pb=28)
        config = CityHunterConfig()
        metas = _select(_db(), split=split, config=config)
        ghosts = [ssid for ssid, _, bucket in metas if bucket == "pb_ghost"]
        assert len(ghosts) == config.ghost_picks
        # pb quota is 26; ghost pool is ranks 27..46 (0-indexed 26..45)
        # before top-up, so picks must come from that band.
        for g in ghosts:
            idx = int(g.split("-")[1])
            assert 26 <= idx < 26 + config.ghost_size

    def test_ghost_picks_vary_with_rng(self):
        db = _db()
        a = {ssid for ssid, _, bucket in _select(db, seed=1) if bucket == "pb_ghost"}
        b = {ssid for ssid, _, bucket in _select(db, seed=2) if bucket == "pb_ghost"}
        assert a != b

    def test_small_db_returns_everything_untried(self):
        db = _db(10)
        metas = _select(db)
        assert len(metas) == 10

    def test_exhausted_db_returns_empty(self):
        db = _db(10)
        tried = {e.ssid for e in db.ranked()}
        assert _select(db, tried) == []


class TestFreshnessBuffer:
    def _db_with_hits(self):
        db = _db()
        # Mid-tier entries got hits recently.
        db.record_hit("ssid-060", time=100.0)
        db.record_hit("ssid-070", time=101.0)
        return db

    def test_fresh_mid_tier_enters_fb(self):
        db = self._db_with_hits()
        metas = _select(db)
        fb = {ssid for ssid, _, bucket in metas if bucket == "fb"}
        assert {"ssid-060", "ssid-070"} <= fb

    def test_fb_leads_the_burst(self):
        db = self._db_with_hits()
        metas = _select(db)
        _, _, bucket = metas[0]
        assert bucket == "fb"

    def test_pb_member_not_double_selected_via_fb(self):
        db = _db()
        db.record_hit("ssid-000", time=100.0)  # top-weight, lives in PB
        metas = _select(db)
        hits = [ssid for ssid, _, _ in metas if ssid == "ssid-000"]
        assert len(hits) == 1

    def test_fb_respects_tried(self):
        db = self._db_with_hits()
        metas = _select(db, tried={"ssid-060"})
        assert "ssid-060" not in {ssid for ssid, _, _ in metas}

    def test_fb_ghost_draws_from_stale_hits(self):
        db = _db()
        config = CityHunterConfig()
        split = AdaptiveSplit(total=40, initial_pb=28)
        # More fresh hits than the FB quota: the overflow is the ghost.
        for i in range(60, 60 + split.fb_size + 10):
            db.record_hit(f"ssid-{i:03d}", time=float(i))
        metas = _select(db, split=split, config=config)
        fb_ghost = [ssid for ssid, _, bucket in metas if bucket == "fb_ghost"]
        assert len(fb_ghost) == config.ghost_picks


class TestOriginAttribution:
    def test_wigle_origin_by_default(self):
        entry = SsidEntry("x", 1.0, "wigle")
        assert send_origin(entry, now=0.0) == "wigle"

    def test_direct_origin_sticks(self):
        entry = SsidEntry("x", 1.0, "direct")
        assert send_origin(entry, now=1e9) == "direct"

    def test_recent_direct_probe_flips_to_direct(self):
        entry = SsidEntry("x", 1.0, "wigle")
        entry.last_direct_seen = 100.0
        now = 100.0 + DIRECT_ATTRIBUTION_WINDOW_S / 2
        assert send_origin(entry, now=now) == "direct"

    def test_stale_direct_probe_reverts_to_wigle(self):
        entry = SsidEntry("x", 1.0, "wigle")
        entry.last_direct_seen = 100.0
        assert send_origin(entry, now=101.0 + DIRECT_ATTRIBUTION_WINDOW_S) == "wigle"

    def test_carrier_origin_preserved(self):
        entry = SsidEntry("PCCW1x", 1.0, "carrier")
        assert send_origin(entry, now=0.0) == "carrier"
