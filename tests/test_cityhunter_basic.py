"""Tests for the preliminary City-Hunter (repro.attacks.cityhunter_basic)."""

import pytest

from repro.attacks.cityhunter_basic import CityHunterBasic
from repro.dot11.frames import ProbeRequest, ProbeResponse
from repro.dot11.medium import Medium
from repro.geo.point import Point
from repro.sim.simulation import Simulation


class Sniffer:
    def __init__(self, mac="02:00:00:00:00:99"):
        self.mac = mac
        self.received = []

    def position_at(self, time):
        return Point(1, 0)

    def receive(self, frame, time):
        self.received.append(frame)

    def receive_burst(self, responses, time, spacing):
        self.received.extend(responses)


@pytest.fixture
def deployed(city, wigle):
    sim = Simulation(seed=2)
    medium = Medium(sim)
    venue = city.venue("University Canteen")
    attacker = CityHunterBasic(
        "02:aa:00:00:00:01", venue.region.center, medium, wigle=wigle
    )
    sniffer = Sniffer()
    # Co-locate the sniffer with the attacker so frames reach it.
    sniffer.position_at = lambda t: venue.region.center
    medium.attach(sniffer, 100.0)
    sim.add_entity(attacker)
    sim.run(0.001)
    return sim, attacker, sniffer


class TestSeeding:
    def test_database_seeded_from_wigle(self, deployed):
        _, attacker, _ = deployed
        # 100 nearby + 200 popular, minus overlap.
        assert 250 <= attacker.db_size <= 300

    def test_nearby_seeds_lead_the_order(self, deployed, city, wigle):
        _, attacker, _ = deployed
        venue = city.venue("University Canteen")
        nearest = wigle.nearest_free_ssids(venue.region.center, 5)
        assert attacker._order[:5] == nearest


class TestUntriedLists:
    def _drain(self, sim, sniffer):
        sim.run(sim.now + 1.0)
        out = [f.ssid for f in sniffer.received if isinstance(f, ProbeResponse)]
        sniffer.received.clear()
        return out

    def test_first_reply_is_head_40(self, deployed):
        sim, attacker, sniffer = deployed
        attacker.receive(ProbeRequest(sniffer.mac), sim.now)
        first = self._drain(sim, sniffer)
        assert first == attacker._order[:40]

    def test_second_reply_continues_where_first_stopped(self, deployed):
        sim, attacker, sniffer = deployed
        attacker.receive(ProbeRequest(sniffer.mac), sim.now)
        first = self._drain(sim, sniffer)
        attacker.receive(ProbeRequest(sniffer.mac), sim.now)
        second = self._drain(sim, sniffer)
        assert second == attacker._order[40:80]
        assert not set(first) & set(second)

    def test_database_exhaustion_sends_nothing(self, deployed):
        sim, attacker, sniffer = deployed
        for _ in range(attacker.db_size // 40 + 2):
            attacker.receive(ProbeRequest(sniffer.mac), sim.now)
            self._drain(sim, sniffer)  # let each burst land
        attacker.receive(ProbeRequest(sniffer.mac), sim.now)
        assert self._drain(sim, sniffer) == []

    def test_untried_lists_are_per_client(self, deployed):
        sim, attacker, sniffer = deployed
        attacker.receive(ProbeRequest(sniffer.mac), sim.now)
        self._drain(sim, sniffer)
        # A different client starts from the head again.
        other = Sniffer(mac="02:00:00:00:00:77")
        other.position_at = sniffer.position_at
        attacker.medium.attach(other, 100.0)
        attacker.receive(ProbeRequest(other.mac), sim.now)
        sim.run(sim.now + 1.0)
        ssids = [f.ssid for f in other.received if isinstance(f, ProbeResponse)]
        assert ssids == attacker._order[:40]


class TestHarvesting:
    def test_direct_probe_appends_to_tail(self, deployed):
        sim, attacker, sniffer = deployed
        size_before = attacker.db_size
        attacker.receive(ProbeRequest(sniffer.mac, "BrandNew"), sim.now)
        assert attacker.db_size == size_before + 1
        assert attacker._order[-1] == "BrandNew"

    def test_duplicate_direct_probe_not_duplicated(self, deployed):
        sim, attacker, sniffer = deployed
        attacker.receive(ProbeRequest(sniffer.mac, "BrandNew"), sim.now)
        size = attacker.db_size
        attacker.receive(ProbeRequest(sniffer.mac, "BrandNew"), sim.now)
        assert attacker.db_size == size

    def test_direct_probe_mimicked(self, deployed):
        sim, attacker, sniffer = deployed
        attacker.receive(ProbeRequest(sniffer.mac, "HomeNet"), sim.now)
        sim.run(sim.now + 1.0)
        ssids = [f.ssid for f in sniffer.received if isinstance(f, ProbeResponse)]
        assert ssids == ["HomeNet"]

    def test_wigle_seed_probed_directly_becomes_direct_origin(self, deployed):
        sim, attacker, sniffer = deployed
        seed_ssid = attacker._order[0]
        attacker.receive(ProbeRequest(sniffer.mac, seed_ssid), sim.now)
        sim.run(sim.now + 1.0)
        sniffer.received.clear()
        attacker.receive(ProbeRequest(sniffer.mac), sim.now)
        sim.run(sim.now + 1.0)
        origin, _, _ = attacker.session._provenance[sniffer.mac][seed_ssid]
        assert origin == "direct"
