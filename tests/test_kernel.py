"""The decision kernel: opaque client keys and what each handler returns."""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSplit
from repro.core.config import CityHunterConfig
from repro.core.kernel import HunterKernel
from repro.dot11.mac import random_client_mac


def _seeded(city, wigle, config=None):
    center = city.venue("University Canteen").region.center
    return HunterKernel.seeded(
        wigle, city.heatmap, center, config=config, seed=5
    )


def _db_state(kernel):
    return (
        [
            (e.ssid, e.weight, e.origin, e.hits, e.last_hit, e.direct_seen,
             e.last_direct_seen)
            for e in kernel.db.ranked()
        ],
        list(kernel.db.recent_hits()),
        kernel.split.pb_size,
        kernel.split.adjustments,
        kernel.version,
    )


class TestOpaqueClientKey:
    def test_mac_strings_and_ints_drive_identical_kernels(self, city, wigle):
        """Keying the untried lists by ints instead of MAC strings
        changes no burst and no database or split state."""
        by_mac = _seeded(city, wigle)
        by_int = _seeded(city, wigle)
        rng = np.random.default_rng(11)
        macs = [random_client_mac(rng) for _ in range(6)]
        offered = {i: [] for i in range(len(macs))}
        now = 0.0
        for _ in range(400):
            now += float(rng.exponential(2.0))
            i = int(rng.integers(len(macs)))
            action = rng.random()
            if action < 0.6:
                burst = by_mac.select(macs[i], now)
                assert by_int.select(i, now) == burst
                offered[i].extend(burst)
            elif action < 0.75:
                ssid = "hidden-%d" % int(rng.integers(12))
                assert by_mac.learn_direct(ssid, now) == by_int.learn_direct(
                    ssid, now
                )
            elif offered[i]:
                # Hits favour the ghost buckets so the split moves.
                ghosts = [m for m in offered[i] if m[2].endswith("_ghost")]
                pool = ghosts if ghosts and rng.random() < 0.7 else offered[i]
                ssid, _, bucket = pool[int(rng.integers(len(pool)))]
                assert by_mac.hit(ssid, bucket, now) == by_int.hit(
                    ssid, bucket, now
                )
        assert by_mac.split.adjustments > 0
        assert _db_state(by_mac) == _db_state(by_int)
        assert {macs.index(k): v for k, v in by_mac.tried.items()} == (
            by_int.tried
        )


class TestHandlerReturns:
    def test_learn_direct_true_only_on_first_sighting(self, city, wigle):
        kernel = _seeded(city, wigle)
        seeded_ssid = kernel.db.ranked()[0].ssid
        size = len(kernel.db)
        assert kernel.learn_direct("never-seen-net", 1.0) is True
        assert kernel.learn_direct("never-seen-net", 2.0) is False
        assert kernel.learn_direct(seeded_ssid, 3.0) is False
        assert len(kernel.db) == size + 1
        entry = kernel.db.get("never-seen-net")
        assert entry.origin == "direct" and entry.last_direct_seen == 2.0

    @pytest.mark.parametrize("bucket", ["mimic", None, "pb", "fb", "unknown"])
    def test_hit_without_ghost_bucket_returns_none(self, city, wigle, bucket):
        kernel = _seeded(city, wigle)
        ssid = kernel.db.ranked()[0].ssid
        pb = kernel.split.pb_size
        assert kernel.hit(ssid, bucket, 1.0) is None
        assert kernel.split.pb_size == pb

    def test_hit_returns_the_direction_the_split_moved(self, city, wigle):
        config = CityHunterConfig(initial_pb=6)
        kernel = _seeded(city, wigle, config)
        reference = AdaptiveSplit(
            total=config.burst_total, initial_pb=6, min_size=config.min_buffer
        )
        ssid = kernel.db.ranked()[0].ssid
        # Runs into the lower clamp, where a ghost hit moves nothing.
        buckets = ["fb_ghost"] * 4 + ["pb_ghost"] * 3 + ["fb", "pb"]
        directions = []
        for t, bucket in enumerate(buckets):
            before = kernel.split.pb_size
            direction = kernel.hit(ssid, bucket, float(t))
            moved = kernel.split.pb_size - before
            assert direction == {1: "grow_pb", -1: "grow_fb", 0: None}[moved]
            assert direction == reference.on_hit(bucket)
            directions.append(direction)
        assert directions == (
            ["grow_fb", "grow_fb", None, None]
            + ["grow_pb"] * 3 + [None, None]
        )

    def test_fixed_split_never_reports_a_swap(self, city, wigle):
        kernel = _seeded(city, wigle, CityHunterConfig(adaptive=False))
        ssid = kernel.db.ranked()[0].ssid
        assert kernel.hit(ssid, "pb_ghost", 1.0) is None
        assert kernel.hit(ssid, "fb_ghost", 2.0) is None
