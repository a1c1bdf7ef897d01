"""Tests for the stealth City-Hunter variant (repro.attacks.stealth)."""

import pytest

from repro.attacks.stealth import StealthCityHunter
from repro.defenses.detector import CanaryProbeDetector, MultiSsidDetector
from repro.dot11.frames import (
    AssocRequest,
    AuthRequest,
    ProbeRequest,
    ProbeResponse,
)
from repro.dot11.medium import Medium
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.geo.point import Point
from repro.sim.simulation import Simulation


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
def deployed(city, wigle):
    sim = Simulation(seed=3)
    medium = Medium(sim)
    venue = city.venue("University Canteen")
    hunter = StealthCityHunter(
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
    out = [f for f in sniffer.received if isinstance(f, ProbeResponse)]
    sniffer.received.clear()
    return out


class TestBssidRotation:
    def test_each_ssid_gets_its_own_bssid(self, deployed):
        sim, hunter, sniffer = deployed
        hunter.receive(ProbeRequest(sniffer.mac), sim.now)
        responses = _drain(sim, sniffer)
        assert len(responses) == 40
        assert len({r.src for r in responses}) == 40
        assert all(r.src != hunter.mac for r in responses)

    def test_alias_stable_per_ssid(self, deployed):
        sim, hunter, sniffer = deployed
        a = hunter.alias_for("Some Net").mac
        b = hunter.alias_for("Some Net").mac
        assert a == b
        assert hunter.alias_for("Other Net").mac != a

    def test_handshake_through_alias_records_hit(self, deployed):
        sim, hunter, sniffer = deployed
        hunter.receive(ProbeRequest(sniffer.mac), sim.now)
        responses = _drain(sim, sniffer)
        target = responses[3]
        # The phone-side flow: auth then assoc, addressed to the alias.
        alias_mac = target.src
        hunter.receive_as(alias_mac, AuthRequest(sniffer.mac, alias_mac), sim.now)
        hunter.receive_as(
            alias_mac, AssocRequest(sniffer.mac, alias_mac, target.ssid), sim.now
        )
        rec = hunter.session.clients[sniffer.mac]
        assert rec.connected
        assert rec.hit_ssid == target.ssid

    def test_alias_ignores_broadcast_probes(self, deployed):
        """Only the main station answers probes — otherwise every alias
        would fire a burst per probe."""
        sim, hunter, sniffer = deployed
        hunter.receive(ProbeRequest(sniffer.mac), sim.now)
        first = _drain(sim, sniffer)
        sniffer.received.clear()
        # Deliver the same broadcast probe through the medium (all
        # aliases overhear it as attached stations).
        sim.at(0.0, hunter.medium.transmit, sniffer, ProbeRequest(sniffer.mac))
        second = _drain(sim, sniffer)
        # Exactly one more burst (from the hunter), not one per alias.
        assert len(second) == 40
        assert len(first) == 40


class TestMimicDiscipline:
    def test_unknown_ssid_not_mimicked_but_learned(self, deployed):
        sim, hunter, sniffer = deployed
        hunter.receive(ProbeRequest(sniffer.mac, "NeverSeenNet"), sim.now)
        assert _drain(sim, sniffer) == []  # silence
        assert "NeverSeenNet" in hunter.db  # but harvested

    def test_known_ssid_still_mimicked(self, deployed):
        sim, hunter, sniffer = deployed
        known = hunter.db.ranked()[0].ssid
        hunter.receive(ProbeRequest(sniffer.mac, known), sim.now)
        responses = _drain(sim, sniffer)
        assert [r.ssid for r in responses] == [known]

    def test_mimic_unknown_optin(self, city, wigle):
        sim = Simulation(seed=3)
        medium = Medium(sim)
        hunter = StealthCityHunter(
            "02:aa:00:00:00:01",
            Point(0, 0),
            medium,
            wigle=wigle,
            heatmap=city.heatmap,
            mimic_unknown=True,
        )
        sniffer = Sniffer(where=Point(0, 0))
        medium.attach(sniffer, 100.0)
        sim.add_entity(hunter)
        sim.run(0.001)
        hunter.receive(ProbeRequest(sniffer.mac, "NeverSeenNet"), sim.now)
        responses = _drain(sim, sniffer)
        assert [r.ssid for r in responses] == ["NeverSeenNet"]


class TestDetectorEvasion:
    def _deploy_with_detectors(self, city, wigle, factory):
        config = ScenarioConfig(
            venue_name="University Canteen",
            mobility="static",
            people_per_min=25.0,
            duration=600.0,
            seed=4,
        )
        build = build_scenario(city, wigle, config, factory)
        center = build.venue.region.center
        passive = MultiSsidDetector("02:de:te:ct:00:01", center, build.medium)
        active = CanaryProbeDetector("02:de:te:ct:00:02", center, build.medium)
        build.sim.add_entity(passive)
        build.sim.add_entity(active)
        build.sim.run(630.0)
        return build, passive, active

    def test_stealth_evades_both_detectors(self, city, wigle):
        def factory(sim, medium, venue):
            return StealthCityHunter(
                "02:aa:00:00:00:01",
                venue.region.center,
                medium,
                wigle=wigle,
                heatmap=city.heatmap,
            )

        build, passive, active = self._deploy_with_detectors(city, wigle, factory)
        hunter = build.attacker
        # Not one of the hundreds of BSSIDs gets flagged.
        flagged = [a.mac for a in hunter._alias_by_ssid.values()
                   if passive.is_flagged(a.mac) or active.is_flagged(a.mac)]
        assert flagged == []
        assert not passive.is_flagged(hunter.mac)
        assert not active.is_flagged(hunter.mac)

    def test_stealth_sends_and_learns_on_the_record(self, city, wigle):
        """Every SSID the stealth hunter sends, and every SSID it learns
        from a direct probe, shows in the attacker metrics."""
        mimics = []

        class CountingStealth(StealthCityHunter):
            def send_mimic(self, client, ssid, time):
                mimics.append(ssid)
                super().send_mimic(client, ssid, time)

        def factory(sim, medium, venue):
            return CountingStealth(
                "02:aa:00:00:00:01",
                venue.region.center,
                medium,
                wigle=wigle,
                heatmap=city.heatmap,
            )

        build, _, _ = self._deploy_with_detectors(city, wigle, factory)
        hunter, metrics = build.attacker, build.sim.metrics
        burst_ssids = sum(r.ssids_sent for r in hunter.session.clients.values())
        assert burst_ssids and mimics
        assert metrics.counter_value("attacker.responses_sent") == (
            burst_ssids + len(mimics)
        )
        learned = sum(1 for e in hunter.db.ranked() if e.origin == "direct")
        assert learned
        assert metrics.counter_value(
            "hunter.db_adds", provenance="overheard-direct"
        ) == learned

    def test_stealth_still_hunts(self, city, wigle):
        """Evasion must not destroy the hit rate."""
        from repro.analysis.metrics import summarize
        from repro.experiments.attackers import make_cityhunter

        def stealth_factory(sim, medium, venue):
            return StealthCityHunter(
                "02:aa:00:00:00:01",
                venue.region.center,
                medium,
                wigle=wigle,
                heatmap=city.heatmap,
            )

        build_s, _, _ = self._deploy_with_detectors(city, wigle, stealth_factory)
        build_p, _, _ = self._deploy_with_detectors(
            city, wigle, make_cityhunter(wigle, city.heatmap)
        )
        stealth_hb = summarize(build_s.attacker.session).broadcast_hit_rate
        plain_hb = summarize(build_p.attacker.session).broadcast_hit_rate
        assert stealth_hb > 0.5 * plain_hb
