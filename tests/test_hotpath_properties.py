"""Property-based invariants for the selection / ranking hot paths.

Runs under `hypothesis <https://hypothesis.readthedocs.io>`_ when it is
installed (it is in the ``dev`` extra); in a bare environment every
property falls back to a seeded-random sweep so the invariants are never
silently unexercised.

The invariants, straight from the paper and the incremental-ranking
rewrite:

* ``pb_size + fb_size == burst_total`` survives any hit sequence;
* ghost pools never exceed ``ghost_size`` (20) and ghost picks never
  exceed ``ghost_picks``;
* an SSID is never offered twice to the same client (untried invariant);
* :meth:`WeightedSsidDatabase.ranked` stays equal to the
  ``sorted(..., key=(-weight, ssid))`` oracle after arbitrary add /
  bump / hit interleavings;
* the single-pass selection equals a from-scratch oracle implementation
  of the original double-scan algorithm, RNG draw for RNG draw;
* :class:`BufferedUniform` replays the exact scalar draw sequence.
"""

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSplit
from repro.core.config import CityHunterConfig
from repro.core.selection import select_for_client, send_origin
from repro.core.ssid_database import WeightedSsidDatabase
from repro.util.rng import BufferedUniform

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without dev extras
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)

SEED_SWEEP = list(range(12))


# -- reusable property drivers (shared by both harnesses) -----------------


def check_split_invariant(buckets):
    split = AdaptiveSplit()
    for bucket in buckets:
        split.on_hit(bucket)
        assert split.pb_size + split.fb_size == split.total == 40
        assert split.min_size <= split.pb_size <= split.total - split.min_size
        assert split.min_size <= split.fb_size <= split.total - split.min_size


def build_db(ops):
    """Apply (op, ssid, value) mutations; return db + mirrored dict."""
    db = WeightedSsidDatabase()
    mirror = {}
    for op, ssid, value in ops:
        if op == "add":
            db.add(ssid, value, origin="wigle")
            if ssid not in mirror or value > mirror[ssid]:
                mirror[ssid] = value
        elif op == "bump":
            db.bump_weight(ssid, value)
            if ssid in mirror:
                mirror[ssid] += value
        else:  # hit
            db.record_hit(ssid, time=abs(value), weight_bonus=value)
            if ssid in mirror and value:
                mirror[ssid] += value
    return db, mirror


def check_ranked_matches_oracle(ops):
    db, mirror = build_db(ops)
    got = [(e.ssid, e.weight) for e in db.ranked()]
    want = sorted(mirror.items(), key=lambda kv: (-kv[1], kv[0]))
    assert got == want
    assert len(db) == len(mirror)


def oracle_select(db, tried, split, config, rng, now=0.0):
    """The original (pre-single-pass) selection algorithm, verbatim:
    head scan, freshness scan, ghost picks, then a *full re-scan* of the
    ranking for the top-up.  The production path must match this output
    exactly, including its RNG consumption."""
    pb_list, fb_list, chosen = [], [], []
    chosen_ssids = set()

    def meta(entry, bucket):
        chosen_ssids.add(entry.ssid)
        return (entry.ssid, send_origin(entry, now), bucket)

    ranked = db.ranked()
    pb_quota = max(0, split.pb_size - config.ghost_picks)
    pb_ghost_pool = []
    for entry in ranked:
        if entry.ssid in tried:
            continue
        if len(pb_list) < pb_quota:
            pb_list.append(meta(entry, "pb"))
        elif len(pb_ghost_pool) < config.ghost_size:
            pb_ghost_pool.append(entry)
        else:
            break
    fb_quota = max(0, split.fb_size - config.ghost_picks)
    fb_ghost_pool = []
    for ssid in db.recent_hits():
        if ssid in tried or ssid in chosen_ssids:
            continue
        entry = db.get(ssid)
        if entry is None:
            continue
        if len(fb_list) < fb_quota:
            fb_list.append(meta(entry, "fb"))
        elif len(fb_ghost_pool) < config.ghost_size:
            fb_ghost_pool.append(entry)
        else:
            break
    chosen.extend(fb_list)
    chosen.extend(pb_list)
    if pb_ghost_pool and config.ghost_picks:
        pool = [e for e in pb_ghost_pool if e.ssid not in chosen_ssids]
        count = min(config.ghost_picks, len(pool))
        if count:
            for i in rng.choice(len(pool), size=count, replace=False):
                chosen.append(meta(pool[int(i)], "pb_ghost"))
    if fb_ghost_pool and config.ghost_picks:
        pool = [e for e in fb_ghost_pool if e.ssid not in chosen_ssids]
        count = min(config.ghost_picks, len(pool))
        if count:
            for i in rng.choice(len(pool), size=count, replace=False):
                chosen.append(meta(pool[int(i)], "fb_ghost"))
    if len(chosen) < config.burst_total:
        for entry in ranked:
            if len(chosen) >= config.burst_total:
                break
            if entry.ssid in tried or entry.ssid in chosen_ssids:
                continue
            chosen.append(meta(entry, "pb"))
    assert len(pb_ghost_pool) <= config.ghost_size
    assert len(fb_ghost_pool) <= config.ghost_size
    return chosen[: config.burst_total]


def make_selection_world(rng, n_ssids, n_hits, n_tried, pb_size):
    db = WeightedSsidDatabase()
    ssids = [f"net-{i:03d}" for i in range(n_ssids)]
    for s in ssids:
        db.add(s, float(rng.integers(0, 50)), origin="wigle")
    for _ in range(n_hits):
        s = ssids[int(rng.integers(0, n_ssids))]
        db.record_hit(s, time=float(rng.random() * 100), weight_bonus=1.0)
    n_tried = min(n_tried, n_ssids)
    tried = {ssids[int(i)] for i in rng.choice(n_ssids, size=n_tried, replace=False)}
    config = CityHunterConfig()
    split = AdaptiveSplit(initial_pb=pb_size)
    return db, tried, split, config


def check_selection_properties(seed, n_ssids, n_hits, n_tried, pb_size):
    rng = np.random.default_rng(seed)
    db, tried, split, config = make_selection_world(
        rng, n_ssids, n_hits, n_tried, pb_size
    )
    # Production and oracle must consume identically-seeded streams.
    draw_seed = int(rng.integers(0, 2**32))
    got = select_for_client(
        db, tried, split, config, np.random.default_rng(draw_seed)
    )
    want = oracle_select(
        db, tried, split, config, np.random.default_rng(draw_seed)
    )
    assert got == want
    # Core burst invariants.
    assert len(got) <= config.burst_total
    names = [ssid for ssid, _, _ in got]
    assert len(names) == len(set(names)), "duplicate SSID within a burst"
    assert not (set(names) & tried), "re-sent an already-tried SSID"
    for bucket in ("pb_ghost", "fb_ghost"):
        assert sum(b == bucket for _, _, b in got) <= config.ghost_picks
    untried_total = sum(s not in tried for s in (e.ssid for e in db.ranked()))
    assert len(got) == min(config.burst_total, untried_total)


def check_untried_across_bursts(seed):
    """Repeated select→mark-tried rounds never repeat an SSID."""
    rng = np.random.default_rng(seed)
    db, _, split, config = make_selection_world(rng, 150, 30, 0, 30)
    tried = set()
    seen = []
    for _ in range(6):
        burst = select_for_client(db, tried, split, config, rng)
        if not burst:
            break
        seen.extend(ssid for ssid, _, _ in burst)
        tried.update(ssid for ssid, _, _ in burst)
    assert len(seen) == len(set(seen))


def check_buffered_uniform(seed, n):
    a = np.random.default_rng(seed)
    b = np.random.default_rng(seed)
    buffered = BufferedUniform(a, block=7)
    assert [buffered.next() for _ in range(n)] == [b.random() for _ in range(n)]


# -- seeded-random harness (always runs) ----------------------------------


class TestSeededSweep:
    @pytest.mark.parametrize("seed", SEED_SWEEP)
    def test_split_invariant(self, seed):
        rng = np.random.default_rng(seed)
        buckets = [
            ["pb", "fb", "pb_ghost", "fb_ghost", "mimic"][int(i)]
            for i in rng.integers(0, 5, size=200)
        ]
        check_split_invariant(buckets)

    @pytest.mark.parametrize("seed", SEED_SWEEP)
    def test_ranked_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        names = [f"s{i}" for i in range(30)]
        ops = []
        for _ in range(120):
            op = ["add", "bump", "hit"][int(rng.integers(0, 3))]
            ssid = names[int(rng.integers(0, len(names)))]
            value = float(rng.integers(-5, 20))
            ops.append((op, ssid, value))
        check_ranked_matches_oracle(ops)

    @pytest.mark.parametrize("seed", SEED_SWEEP)
    def test_selection_matches_oracle(self, seed):
        rng = np.random.default_rng(seed + 1000)
        check_selection_properties(
            seed,
            n_ssids=int(rng.integers(1, 200)),
            n_hits=int(rng.integers(0, 60)),
            n_tried=int(rng.integers(0, 40)),
            pb_size=int(rng.integers(4, 37)),
        )

    @pytest.mark.parametrize("seed", SEED_SWEEP)
    def test_untried_across_bursts(self, seed):
        check_untried_across_bursts(seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_buffered_uniform_bit_identical(self, seed):
        check_buffered_uniform(seed, n=40)

    def test_buffered_uniform_rejects_bad_block(self):
        with pytest.raises(ValueError):
            BufferedUniform(np.random.default_rng(0), block=0)


# -- hypothesis harness (richer search when available) --------------------


if HAVE_HYPOTHESIS:
    _ops = st.lists(
        st.tuples(
            st.sampled_from(["add", "bump", "hit"]),
            st.sampled_from([f"s{i}" for i in range(20)]),
            st.floats(
                min_value=-10, max_value=50, allow_nan=False, allow_infinity=False
            ),
        ),
        max_size=150,
    )

    class TestHypothesis:
        @needs_hypothesis
        @settings(max_examples=60, deadline=None)
        @given(
            st.lists(
                st.sampled_from(["pb", "fb", "pb_ghost", "fb_ghost", "x"]),
                max_size=300,
            )
        )
        def test_split_invariant(self, buckets):
            check_split_invariant(buckets)

        @needs_hypothesis
        @settings(max_examples=60, deadline=None)
        @given(_ops)
        def test_ranked_matches_oracle(self, ops):
            check_ranked_matches_oracle(ops)

        @needs_hypothesis
        @settings(max_examples=40, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=2**31),
            n_ssids=st.integers(min_value=1, max_value=150),
            n_hits=st.integers(min_value=0, max_value=50),
            pb_size=st.integers(min_value=4, max_value=36),
        )
        def test_selection_matches_oracle(self, seed, n_ssids, n_hits, pb_size):
            n_tried = min(n_ssids, 20)
            check_selection_properties(seed, n_ssids, n_hits, n_tried, pb_size)

        @needs_hypothesis
        @settings(max_examples=25, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=2**31))
        def test_untried_across_bursts(self, seed):
            check_untried_across_bursts(seed)

        @needs_hypothesis
        @settings(max_examples=25, deadline=None)
        @given(
            seed=st.integers(min_value=0, max_value=2**31),
            n=st.integers(min_value=1, max_value=64),
        )
        def test_buffered_uniform(self, seed, n):
            check_buffered_uniform(seed, n)
