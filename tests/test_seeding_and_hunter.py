"""Tests for database seeding and the assembled CityHunter attacker."""

import pytest

from repro.core.config import CityHunterConfig
from repro.core.hunter import CityHunter
from repro.core.seeding import seed_database
from repro.dot11.frames import (
    AssocRequest,
    AuthRequest,
    ProbeRequest,
    ProbeResponse,
)
from repro.dot11.medium import Medium
from repro.geo.point import Point
from repro.sim.simulation import Simulation
from repro.wigle.queries import top_ssids_by_count


class TestSeeding:
    def test_selection_is_by_count_ranking_by_heat(self, city, wigle):
        config = CityHunterConfig(n_popular=50, n_nearby=10)
        center = city.venue("University Canteen").region.center
        db = seed_database(wigle, city.heatmap, center, config)
        by_count = {s for s, _ in top_ssids_by_count(wigle, 50)}
        ranked = [e.ssid for e in db.ranked()]
        # Heat re-orders within the count-selected set: the airport
        # network (231 APs, rank ~13 by count) must sit near the top.
        assert ranked.index("#HKAirport Free WiFi") <= 3
        # One-off hot-mall cafés are excluded despite high heat.
        top_weighted = set(ranked[:50])
        assert len(top_weighted & by_count) >= 40

    def test_weights_follow_rank_order(self, city, wigle):
        config = CityHunterConfig(n_popular=50, n_nearby=0)
        center = city.venue("University Canteen").region.center
        db = seed_database(wigle, city.heatmap, center, config)
        entries = db.ranked()
        assert entries[0].weight == 50.0
        assert entries[-1].weight == 1.0

    def test_nearby_seeds_included(self, city, wigle):
        config = CityHunterConfig(n_popular=10, n_nearby=30)
        center = city.venue("University Canteen").region.center
        db = seed_database(wigle, city.heatmap, center, config)
        nearest = wigle.nearest_free_ssids(center, 5)
        for ssid in nearest:
            assert ssid in db

    def test_count_ranking_ablation(self, city, wigle):
        config = CityHunterConfig(n_popular=50, n_nearby=0)
        center = city.venue("University Canteen").region.center
        db = seed_database(wigle, None, center, config, use_heat=False)
        ranked = [e.ssid for e in db.ranked()]
        assert ranked[0] == "-Free HKBN Wi-Fi-"
        assert ranked.index("#HKAirport Free WiFi") > 5

    def test_heat_requested_without_heatmap_rejected(self, city, wigle):
        with pytest.raises(ValueError):
            seed_database(wigle, None, Point(0, 0), use_heat=True)

    def test_carrier_extension_preloads(self, city, wigle):
        config = CityHunterConfig(carrier_ssids=("PCCW1x",), n_popular=10, n_nearby=0)
        db = seed_database(wigle, city.heatmap, Point(0, 0), config)
        entry = db.get("PCCW1x")
        assert entry is not None
        assert entry.origin == "carrier"
        assert entry.weight == config.carrier_weight


class Sniffer:
    def __init__(self, mac="02:00:00:00:00:99", where=Point(1, 0)):
        self.mac = mac
        self.where = where
        self.received = []

    def position_at(self, time):
        return self.where

    def receive(self, frame, time):
        self.received.append(frame)

    def receive_burst(self, responses, time, spacing):
        self.received.extend(responses)


@pytest.fixture
def hunter_deploy(city, wigle):
    sim = Simulation(seed=3)
    medium = Medium(sim)
    venue = city.venue("University Canteen")
    hunter = CityHunter(
        "02:aa:00:00:00:01",
        venue.region.center,
        medium,
        wigle=wigle,
        heatmap=city.heatmap,
    )
    sniffer = Sniffer(where=venue.region.center)
    medium.attach(sniffer, 100.0)
    sim.add_entity(hunter)
    sim.run(0.001)
    return sim, hunter, sniffer


def _drain(sim, sniffer):
    sim.run(sim.now + 1.0)
    out = [f.ssid for f in sniffer.received if isinstance(f, ProbeResponse)]
    sniffer.received.clear()
    return out


class TestCityHunter:
    def test_broadcast_gets_forty(self, hunter_deploy):
        sim, hunter, sniffer = hunter_deploy
        hunter.receive(ProbeRequest(sniffer.mac), sim.now)
        assert len(_drain(sim, sniffer)) == 40

    def test_untried_across_scans(self, hunter_deploy):
        sim, hunter, sniffer = hunter_deploy
        hunter.receive(ProbeRequest(sniffer.mac), sim.now)
        first = set(_drain(sim, sniffer))
        hunter.receive(ProbeRequest(sniffer.mac), sim.now)
        second = set(_drain(sim, sniffer))
        assert not first & second

    def test_direct_probe_learned_and_mimicked(self, hunter_deploy):
        sim, hunter, sniffer = hunter_deploy
        hunter.receive(ProbeRequest(sniffer.mac, "NewNet"), sim.now)
        assert "NewNet" in hunter.db
        entry = hunter.db.get("NewNet")
        assert entry.origin == "direct"
        assert entry.direct_seen
        assert _drain(sim, sniffer) == ["NewNet"]

    def test_repeat_direct_probe_bumps_weight(self, hunter_deploy):
        sim, hunter, sniffer = hunter_deploy
        hunter.receive(ProbeRequest(sniffer.mac, "NewNet"), sim.now)
        before = hunter.db.get("NewNet").weight
        hunter.receive(ProbeRequest("02:00:00:00:00:77", "NewNet"), sim.now)
        assert hunter.db.get("NewNet").weight == pytest.approx(
            before + hunter.config.direct_repeat_bump
        )

    def test_hit_updates_weight_and_freshness(self, hunter_deploy):
        sim, hunter, sniffer = hunter_deploy
        hunter.receive(ProbeRequest(sniffer.mac), sim.now)
        sent = _drain(sim, sniffer)
        target = sent[5]
        before = hunter.db.get(target).weight
        hunter.receive(AuthRequest(sniffer.mac, hunter.mac), sim.now)
        hunter.receive(AssocRequest(sniffer.mac, hunter.mac, target), sim.now)
        assert hunter.db.get(target).weight == pytest.approx(
            before + hunter.config.hit_weight_bonus
        )
        assert hunter.db.recent_hits()[0] == target
        assert hunter.session.clients[sniffer.mac].connected

    def test_mimic_hit_does_not_touch_freshness(self, hunter_deploy):
        sim, hunter, sniffer = hunter_deploy
        hunter.receive(ProbeRequest(sniffer.mac, "HomeNet"), sim.now)
        hunter.receive(AuthRequest(sniffer.mac, hunter.mac), sim.now)
        hunter.receive(AssocRequest(sniffer.mac, hunter.mac, "HomeNet"), sim.now)
        assert hunter.db.recent_hits() == []
        assert hunter.session.clients[sniffer.mac].connected_via_direct

    def test_ghost_hit_adapts_split(self, hunter_deploy, monkeypatch):
        sim, hunter, sniffer = hunter_deploy
        hunter.receive(ProbeRequest(sniffer.mac), sim.now)
        _drain(sim, sniffer)
        # Find the pb_ghost pick from the session provenance and hit it.
        prov = hunter.session._provenance[sniffer.mac]
        ghost_ssid = next(s for s, (_, b, _) in prov.items() if b == "pb_ghost")
        pb_before = hunter.split.pb_size
        hunter.receive(AssocRequest(sniffer.mac, hunter.mac, ghost_ssid), sim.now)
        assert hunter.split.pb_size == pb_before + 1

    def test_untried_lists_ablation_resends(self, city, wigle):
        sim = Simulation(seed=3)
        medium = Medium(sim)
        config = CityHunterConfig(untried_lists=False)
        hunter = CityHunter(
            "02:aa:00:00:00:01",
            Point(0, 0),
            medium,
            wigle=wigle,
            heatmap=city.heatmap,
            config=config,
        )
        sniffer = Sniffer(where=Point(0, 0))
        medium.attach(sniffer, 100.0)
        sim.add_entity(hunter)
        sim.run(0.001)
        hunter.receive(ProbeRequest(sniffer.mac), sim.now)
        first = _drain(sim, sniffer)
        hunter.receive(ProbeRequest(sniffer.mac), sim.now)
        second = _drain(sim, sniffer)
        # MANA-style amnesia: substantial overlap between bursts.
        assert len(set(first) & set(second)) > 30

    def test_db_size_property(self, hunter_deploy):
        _, hunter, _ = hunter_deploy
        assert hunter.db_size == len(hunter.db)
