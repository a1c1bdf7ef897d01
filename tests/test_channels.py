"""Tests for the channel-scan model."""

import pytest

from repro.attacks.karma import KarmaAttacker
from repro.devices.phone import Phone
from repro.devices.profiles import ScanProfile
from repro.dot11.capabilities import NetworkProfile, Security
from repro.dot11.frames import ProbeRequest
from repro.dot11.medium import Medium
from repro.geo.point import Point
from repro.mobility.base import PathMobility
from repro.population.person import OsFamily, PersonSpec
from repro.sim.simulation import Simulation


class TestAttackerChannelFilter:
    def _karma(self):
        sim = Simulation(seed=1)
        medium = Medium(sim)
        karma = KarmaAttacker(
            "02:aa:00:00:00:01", Point(0, 0), medium, channel=6
        )
        sim.add_entity(karma)
        sim.run(0.001)
        return sim, karma

    def test_hears_own_channel(self):
        sim, karma = self._karma()
        karma.receive(ProbeRequest("02:00:00:00:00:01", channel=6), sim.now)
        assert len(karma.session.clients) == 1

    def test_deaf_to_other_channels(self):
        sim, karma = self._karma()
        karma.receive(ProbeRequest("02:00:00:00:00:01", channel=1), sim.now)
        assert len(karma.session.clients) == 0

    def test_invalid_channel_rejected(self):
        sim = Simulation(seed=1)
        medium = Medium(sim)
        with pytest.raises(ValueError):
            KarmaAttacker("02:aa:00:00:00:01", Point(0, 0), medium, channel=99)


class TestPhoneChannelCycle:
    def _deploy(self, channels, attacker_channel=6):
        sim = Simulation(seed=8)
        medium = Medium(sim)
        venue_pnl = {"Known Net": NetworkProfile("Known Net", Security.OPEN)}
        person = PersonSpec(0, OsFamily.ANDROID, venue_pnl)

        class OneSsidAp(KarmaAttacker):
            # KARMA base answers direct probes only; give it a broadcast
            # reply so the phone can be hit through any channel cycle.
            def on_broadcast_probe(self, client, time):
                self.send_ssid_burst(client, [("Known Net", "wigle", "db")], time)

        ap = OneSsidAp(
            "02:aa:00:00:00:01", Point(0, 0), medium, channel=attacker_channel
        )
        mobility = PathMobility([(0.0, Point(5, 0)), (600.0, Point(5, 0))])
        phone = Phone(
            "02:00:00:00:00:aa",
            person,
            mobility,
            medium,
            scan_profile=ScanProfile(
                first_scan_max_delay=1.0, scan_channels=tuple(channels)
            ),
        )
        sim.add_entity(ap)
        sim.add_entity(phone)
        return sim, ap, phone

    def test_single_channel_default_hits(self):
        sim, ap, phone = self._deploy([6])
        sim.run(10.0)
        assert phone.state == Phone.CONNECTED

    def test_hop_sequence_still_hits_attacker_channel(self):
        sim, ap, phone = self._deploy([1, 6, 11])
        sim.run(10.0)
        assert phone.state == Phone.CONNECTED

    def test_wrong_channels_never_reach_attacker(self):
        sim, ap, phone = self._deploy([1, 11])
        sim.run(60.0)
        assert phone.state != Phone.CONNECTED
        assert len(ap.session.clients) == 0

    def test_scan_duration_scales_with_channels(self):
        sim, ap, phone = self._deploy([1, 6, 11])
        sim.run(10.0)
        # The scan window spans 3 channel dwells of 20 ms each.
        assert phone._window_hard_close - 0.06 < 10.0

    def test_probes_carry_their_channel(self):
        captured = []

        class Monitor:
            mac = "02:mo:ni:to:00:01"

            def position_at(self, t):
                return Point(1, 1)

            def receive(self, frame, t):
                if isinstance(frame, ProbeRequest):
                    captured.append(frame.channel)

        sim, ap, phone = self._deploy([1, 6, 11])
        phone.medium.attach(Monitor(), 100.0, promiscuous=True)
        sim.run(5.0)
        assert set(captured) >= {1, 6, 11}
