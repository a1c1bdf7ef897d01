"""Tests for population synthesis (repro.population)."""

import hashlib

import numpy as np
import pytest

from repro.dot11.capabilities import NetworkProfile, Security
from repro.experiments.calibration import (
    GROUP_PROBS_BASE,
    GROUP_PROBS_RUSH,
    default_city,
)
from repro.experiments.runner import shared_wigle
from repro.mobility.arrivals import ArrivalProcess
from repro.population.groups import GroupModel, draw_group_core, member_share
from repro.population.person import OsFamily, PersonSpec
from repro.population.pnl import CARRIER_SSIDS, VenueContext
from repro.population.synthesis import PersonFactory
from repro.sim.simulation import Simulation

CROWD_DIGEST = (
    "8fb82ef30606bbf5ee7f27154e876583c14dd769536f075d9cf07eca23b1e472"
)
"""``crowd_digest()``, recorded when every per-visitor draw was still a
scalar ``rng.random()`` call and the group size came from
``Generator.choice``.  A change to how a visitor is drawn must leave it
alone."""

CROWD_VENUES = ("University Canteen", "Central Subway Passage")
CROWD_SIZES = (1, 2, 1, 3, 1, 4, 2, 1)


def crowd_digest() -> str:
    """SHA-256 over 300 people per venue of ``default_city()``: each
    person's group id, OS, unsafe flag, direct-probe SSIDs and PNL
    entries (SSID and security, in insertion order), then the exact bits
    of the population stream's next draw."""
    city, wigle = default_city(), shared_wigle()
    h = hashlib.sha256()
    for seed, name in enumerate(CROWD_VENUES):
        venue = city.venue(name)
        near = wigle.nearest_free_ssids(venue.region.center, 50)
        neighbours = [s for s in near if s not in venue.wifi_ssids][:40]
        factory = PersonFactory(
            city, VenueContext(venue, neighbours), np.random.default_rng(seed)
        )
        for size in CROWD_SIZES * 20:
            for p in factory.make_group(size):
                h.update(("%d|%s|%d|%s\n" % (
                    p.group_id, p.os_family.name, p.unsafe,
                    "|".join(p.direct_probe_ssids),
                )).encode())
                for ssid, profile in p.pnl.items():
                    h.update(("%s|%s\n" % (ssid, profile.security.name)).encode())
        h.update(factory.rng.random().hex().encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def factory(city, wigle):
    venue = city.venue("University Canteen")
    near = wigle.nearest_free_ssids(venue.region.center, 50)
    ctx = VenueContext(venue, [s for s in near if s not in venue.wifi_ssids][:40])
    return PersonFactory(city, ctx, np.random.default_rng(11))


@pytest.fixture(scope="module")
def crowd(factory):
    people = []
    rng = np.random.default_rng(5)
    while len(people) < 4000:
        size = 1 + int(rng.choice(4, p=[0.62, 0.24, 0.10, 0.04]))
        people.extend(factory.make_group(size))
    return people


class TestPersonBasics:
    def test_ids_unique(self, crowd):
        ids = [p.person_id for p in crowd]
        assert len(ids) == len(set(ids))

    def test_every_pnl_nonempty(self, crowd):
        assert all(len(p.pnl) >= 1 for p in crowd)

    def test_open_pnl_helper(self):
        p = PersonSpec(
            0,
            OsFamily.IOS,
            {
                "open": NetworkProfile("open", Security.OPEN),
                "shut": NetworkProfile("shut", Security.WPA2_PSK),
            },
        )
        assert p.open_pnl_ssids() == ("open",)
        assert p.has_open_entry()


class TestCalibratedMarginals:
    def test_ios_share(self, crowd):
        ios = sum(1 for p in crowd if p.os_family is OsFamily.IOS)
        assert 0.40 < ios / len(crowd) < 0.50

    def test_unsafe_share_near_paper_direct_fraction(self, crowd):
        unsafe = sum(1 for p in crowd if p.unsafe)
        assert 0.11 < unsafe / len(crowd) < 0.19

    def test_unsafe_devices_are_android_only(self, crowd):
        for p in crowd:
            if p.unsafe:
                assert p.os_family is OsFamily.ANDROID

    def test_carrier_ssids_ios_only(self, crowd):
        for p in crowd:
            if any(s in CARRIER_SSIDS for s in p.pnl):
                assert p.os_family is OsFamily.IOS

    def test_carrier_never_in_direct_probes(self, crowd):
        for p in crowd:
            assert not (set(p.direct_probe_ssids) & set(CARRIER_SSIDS))

    def test_unsafe_phones_probe_something(self, crowd):
        for p in crowd:
            if p.unsafe:
                assert len(p.direct_probe_ssids) >= 1
                assert all(s in p.pnl for s in p.direct_probe_ssids)
            else:
                assert p.direct_probe_ssids == ()

    def test_mean_pnl_size_sane(self, crowd):
        mean = np.mean([len(p.pnl) for p in crowd])
        assert 2.0 < mean < 6.0

    def test_direct_probe_open_rate_band(self, crowd):
        """~25-45 % of direct probers reveal an open entry — this is
        what pins KARMA's direct connect rate."""
        unsafe = [p for p in crowd if p.unsafe]
        rate = np.mean(
            [
                any(p.pnl[s].auto_joinable for s in p.direct_probe_ssids)
                for p in unsafe
            ]
        )
        assert 0.2 < rate < 0.5


class TestPinned:
    def test_crowd_pinned_bit_for_bit(self):
        assert crowd_digest() == CROWD_DIGEST

    @pytest.mark.parametrize("probs", [GROUP_PROBS_BASE, GROUP_PROBS_RUSH])
    def test_arrival_sizes_match_generator_choice(self, probs):
        sizes = []
        sim = Simulation(seed=3)
        arrivals = ArrivalProcess(
            120.0, lambda size, now: sizes.append(size),
            group_size_probs=probs,
        )
        sim.add_entity(arrivals)
        sim.run(600.0)
        assert len(sizes) > 1000
        # Replay the arrivals stream: a gap, then (size, gap) per group.
        rng = Simulation(seed=3).rngs.stream("arrivals")
        p = np.asarray(probs, dtype=float)
        p = p / p.sum()
        rng.exponential(0.5)
        expected = []
        for _ in sizes:
            expected.append(1 + int(rng.choice(len(p), p=p)))
            rng.exponential(0.5)
        assert sizes == expected


class TestGroups:
    def test_solo_has_no_group(self, factory):
        person = factory.make_group(1)[0]
        assert person.group_id == -1

    def test_group_members_share_id(self, factory):
        group = factory.make_group(3)
        ids = {p.group_id for p in group}
        assert len(ids) == 1 and group[0].group_id >= 0

    def test_distinct_groups_distinct_ids(self, factory):
        a = factory.make_group(2)[0].group_id
        b = factory.make_group(2)[0].group_id
        assert a != b

    def test_bad_size_rejected(self, factory):
        with pytest.raises(ValueError):
            factory.make_group(0)

    def test_groups_share_more_open_ssids_than_strangers(self, crowd):
        """The social-correlation premise of the freshness buffer."""
        from collections import defaultdict
        import itertools

        by_group = defaultdict(list)
        for p in crowd:
            if p.group_id >= 0:
                by_group[p.group_id].append(p)
        pairs = []
        for members in by_group.values():
            pairs.extend(itertools.combinations(members, 2))
        pairs = pairs[:800]

        def overlap(a, b):
            return len(set(a.open_pnl_ssids()) & set(b.open_pnl_ssids()))

        group_overlap = np.mean([overlap(a, b) for a, b in pairs])
        solos = [p for p in crowd if p.group_id == -1][:800]
        stranger_overlap = np.mean(
            [overlap(a, b) for a, b in zip(solos[0::2], solos[1::2])]
        )
        assert group_overlap > 2 * stranger_overlap

    def test_group_marginal_adoption_not_inflated(self, crowd, city):
        """Group sharing must not raise members' marginal chain adoption."""
        pool = {p.ssid for p in city.public_pool}

        def rate(people):
            return np.mean([len(set(p.pnl) & pool) for p in people])

        grouped = [p for p in crowd if p.group_id >= 0]
        solo = [p for p in crowd if p.group_id == -1]
        assert rate(grouped) == pytest.approx(rate(solo), rel=0.35)


class TestGroupCore:
    def test_core_draws_respect_model(self):
        rng = np.random.default_rng(0)
        model = GroupModel(p_shared_home=1.0, p_hangout=0.0)
        core = draw_group_core(model, ["shop-a"], rng)
        assert len(core) == 1  # exactly the home, no hangouts

    def test_hangout_uses_local_pool(self):
        rng = np.random.default_rng(0)
        model = GroupModel(p_shared_home=0.0, p_hangout=1.0)
        for _ in range(50):
            core = draw_group_core(
                model, ["global"], rng, local_shop_ssids=["local"], p_local=1.0
            )
            assert all(p.ssid == "local" for p in core)

    def test_member_share_full_inheritance(self):
        rng = np.random.default_rng(0)
        model = GroupModel(p_inherit=1.0)
        core = [NetworkProfile("a"), NetworkProfile("b")]
        assert member_share(core, model, rng) == core

    def test_member_share_zero_inheritance(self):
        rng = np.random.default_rng(0)
        model = GroupModel(p_inherit=0.0)
        core = [NetworkProfile("a")]
        assert member_share(core, model, rng) == []
