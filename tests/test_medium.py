"""Tests for the radio medium (repro.dot11.medium)."""

import pytest

from repro.dot11.capabilities import Security
from repro.dot11.frames import ProbeRequest, ProbeResponse
from repro.dot11.medium import Medium
from repro.experiments.attackers import make_cityhunter
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.geo.point import Point
from repro.sim.simulation import Simulation
from repro.util.rng import RngRegistry
from repro.util.units import PROBE_RESPONSE_AIRTIME_S


class FakeStation:
    """Fixed or scripted-motion station recording what it receives."""

    def __init__(self, mac, position, velocity=(0.0, 0.0)):
        self.mac = mac
        self._origin = position
        self._velocity = velocity
        self.received = []

    def position_at(self, time):
        return Point(
            self._origin.x + self._velocity[0] * time,
            self._origin.y + self._velocity[1] * time,
        )

    def receive(self, frame, time):
        self.received.append((frame, time))


def _setup(fidelity="frame", loss_rate=0.0):
    sim = Simulation(seed=3)
    medium = Medium(sim, fidelity=fidelity, loss_rate=loss_rate)
    return sim, medium


class TestAttachment:
    def test_attach_detach(self):
        sim, medium = _setup()
        st = FakeStation("02:00:00:00:00:01", Point(0, 0))
        medium.attach(st, 50.0)
        assert medium.is_attached(st.mac)
        assert medium.station_count == 1
        medium.detach(st.mac)
        assert not medium.is_attached(st.mac)

    def test_detach_unknown_is_noop(self):
        _, medium = _setup()
        medium.detach("02:aa:aa:aa:aa:aa")

    def test_bad_range_rejected(self):
        sim, medium = _setup()
        with pytest.raises(ValueError):
            medium.attach(FakeStation("02:00:00:00:00:01", Point(0, 0)), 0.0)

    def test_bad_fidelity_rejected(self):
        sim = Simulation(seed=0)
        with pytest.raises(ValueError):
            Medium(sim, fidelity="psychic")

    def test_bad_loss_rate_rejected(self):
        sim = Simulation(seed=0)
        with pytest.raises(ValueError):
            Medium(sim, loss_rate=1.5)
        with pytest.raises(ValueError):
            Medium(sim, loss_rate=-0.1)

    def test_total_blackout_allowed(self):
        # loss_rate=1.0 is a legal, useful degenerate case: the channel
        # exists but delivers nothing.
        sim, medium = _setup(loss_rate=1.0)
        a = FakeStation("02:00:00:00:00:01", Point(0, 0))
        b = FakeStation("02:00:00:00:00:02", Point(10, 0))
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(1.0)
        assert b.received == []
        assert medium.frames_delivered == 0


class TestBroadcastPropagation:
    def test_in_range_station_receives(self):
        sim, medium = _setup()
        a = FakeStation("02:00:00:00:00:01", Point(0, 0))
        b = FakeStation("02:00:00:00:00:02", Point(30, 0))
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(1.0)
        assert len(b.received) == 1

    def test_out_of_range_station_does_not_receive(self):
        sim, medium = _setup()
        a = FakeStation("02:00:00:00:00:01", Point(0, 0))
        far = FakeStation("02:00:00:00:00:03", Point(60, 0))
        medium.attach(a, 50.0)
        medium.attach(far, 50.0)
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(1.0)
        assert far.received == []

    def test_sender_does_not_hear_itself(self):
        sim, medium = _setup()
        a = FakeStation("02:00:00:00:00:01", Point(0, 0))
        medium.attach(a, 50.0)
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(1.0)
        assert a.received == []

    def test_range_is_senders_range(self):
        sim, medium = _setup()
        quiet = FakeStation("02:00:00:00:00:01", Point(0, 0))
        loud = FakeStation("02:00:00:00:00:02", Point(40, 0))
        medium.attach(quiet, 10.0)
        medium.attach(loud, 100.0)
        medium.transmit(quiet, ProbeRequest(quiet.mac))
        medium.transmit(loud, ProbeRequest(loud.mac))
        sim.run(1.0)
        assert quiet.received and not loud.received

    def test_delivery_delayed_by_airtime(self):
        sim, medium = _setup()
        a = FakeStation("02:00:00:00:00:01", Point(0, 0))
        b = FakeStation("02:00:00:00:00:02", Point(10, 0))
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)
        medium.transmit(a, ProbeRequest(a.mac), airtime=0.005)
        sim.run(1.0)
        assert b.received[0][1] == pytest.approx(0.005)


class TestUnicast:
    def test_only_addressee_receives(self):
        sim, medium = _setup()
        a = FakeStation("02:00:00:00:00:01", Point(0, 0))
        b = FakeStation("02:00:00:00:00:02", Point(10, 0))
        c = FakeStation("02:00:00:00:00:03", Point(10, 10))
        for st in (a, b, c):
            medium.attach(st, 50.0)
        medium.transmit(a, ProbeResponse(a.mac, b.mac, "X", Security.OPEN))
        sim.run(1.0)
        assert len(b.received) == 1
        assert c.received == []

    def test_unknown_addressee_dropped(self):
        sim, medium = _setup()
        a = FakeStation("02:00:00:00:00:01", Point(0, 0))
        medium.attach(a, 50.0)
        medium.transmit(a, ProbeResponse(a.mac, "02:ff:ff:ff:ff:ff", "X"))
        sim.run(1.0)  # must not raise


class TestMotionAtDeliveryTime:
    def test_walker_leaving_range_misses_frame(self):
        sim, medium = _setup()
        ap = FakeStation("02:00:00:00:00:01", Point(0, 0))
        # Walker starts at 49 m and sprints away at 100 m/s (contrived
        # but makes the point: recipients resolve at delivery time).
        walker = FakeStation("02:00:00:00:00:02", Point(49, 0), velocity=(100, 0))
        medium.attach(ap, 50.0)
        medium.attach(walker, 50.0)
        medium.transmit(ap, ProbeRequest(ap.mac), airtime=0.5)
        sim.run(1.0)
        assert walker.received == []

    def test_sender_departed_before_delivery(self):
        sim, medium = _setup()
        a = FakeStation("02:00:00:00:00:01", Point(0, 0))
        b = FakeStation("02:00:00:00:00:02", Point(10, 0))
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)
        medium.transmit(a, ProbeRequest(a.mac), airtime=0.5)
        medium.detach(a.mac)
        sim.run(1.0)
        assert b.received == []


class TestResponseBursts:
    def _burst(self, n, src, dst):
        return [ProbeResponse(src, dst, f"ssid-{i}") for i in range(n)]

    def test_frame_fidelity_spaces_deliveries(self):
        sim, medium = _setup(fidelity="frame")
        ap = FakeStation("02:00:00:00:00:01", Point(0, 0))
        cl = FakeStation("02:00:00:00:00:02", Point(10, 0))
        medium.attach(ap, 50.0)
        medium.attach(cl, 50.0)
        medium.transmit_response_burst(ap, self._burst(3, ap.mac, cl.mac))
        sim.run(1.0)
        times = [t for _, t in cl.received]
        assert len(times) == 3
        gaps = [b - a for a, b in zip(times, times[1:])]
        for gap in gaps:
            assert gap == pytest.approx(PROBE_RESPONSE_AIRTIME_S)

    def test_burst_fidelity_uses_receive_burst_hook(self):
        sim, medium = _setup(fidelity="burst")

        class BurstStation(FakeStation):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                self.bursts = []

            def receive_burst(self, responses, time, spacing):
                self.bursts.append((responses, time, spacing))

        ap = FakeStation("02:00:00:00:00:01", Point(0, 0))
        cl = BurstStation("02:00:00:00:00:02", Point(10, 0))
        medium.attach(ap, 50.0)
        medium.attach(cl, 50.0)
        medium.transmit_response_burst(ap, self._burst(5, ap.mac, cl.mac))
        sim.run(1.0)
        assert len(cl.bursts) == 1
        assert len(cl.bursts[0][0]) == 5
        assert cl.received == []  # everything went through the hook

    def test_burst_fidelity_falls_back_to_per_frame(self):
        sim, medium = _setup(fidelity="burst")
        ap = FakeStation("02:00:00:00:00:01", Point(0, 0))
        cl = FakeStation("02:00:00:00:00:02", Point(10, 0))  # no hook
        medium.attach(ap, 50.0)
        medium.attach(cl, 50.0)
        medium.transmit_response_burst(ap, self._burst(4, ap.mac, cl.mac))
        sim.run(1.0)
        assert len(cl.received) == 4

    def test_empty_burst_is_noop(self):
        sim, medium = _setup()
        ap = FakeStation("02:00:00:00:00:01", Point(0, 0))
        medium.attach(ap, 50.0)
        medium.transmit_response_burst(ap, [])
        sim.run(1.0)

    def test_frames_delivered_counter(self):
        sim, medium = _setup()
        ap = FakeStation("02:00:00:00:00:01", Point(0, 0))
        cl = FakeStation("02:00:00:00:00:02", Point(10, 0))
        medium.attach(ap, 50.0)
        medium.attach(cl, 50.0)
        medium.transmit_response_burst(ap, self._burst(7, ap.mac, cl.mac))
        sim.run(1.0)
        assert medium.frames_delivered == 7


class _CountingUniform:
    """Stands in for the medium's buffered loss stream and counts draws."""

    def __init__(self, inner):
        self._inner = inner
        self.draws = 0

    def next(self):
        self.draws += 1
        return self._inner.next()


class TestLoss:
    def _canteen_run(self, city, wigle, loss_rate):
        """A short frame-fidelity canteen run; returns (build, loss draws,
        recipients resolved)."""
        config = ScenarioConfig(
            venue_name="University Canteen", mobility="static",
            people_per_min=20.0, duration=120.0, seed=9, fidelity="frame",
            loss_rate=loss_rate,
        )
        build = build_scenario(
            city, wigle, config, make_cityhunter(wigle, city.heatmap)
        )
        medium = build.medium
        counter = _CountingUniform(medium._uniform)
        medium._uniform = counter
        recipients = []
        resolve = medium._recipients

        def counted(sender, frame, time):
            out = resolve(sender, frame, time)
            recipients.append(len(out))
            return out

        medium._recipients = counted
        build.sim.run(150.0)
        return build, counter.draws, sum(recipients)

    def test_lossless_channel_draws_nothing(self, city, wigle):
        build, draws, recipients = self._canteen_run(city, wigle, 0.0)
        assert recipients > 100
        assert draws == 0
        untouched = RngRegistry(9).stream("medium").bit_generator.state
        assert build.sim.rngs.stream("medium").bit_generator.state == untouched

    def test_lossy_channel_draws_once_per_recipient(self, city, wigle):
        build, draws, recipients = self._canteen_run(city, wigle, 0.2)
        assert recipients > 100
        assert draws == recipients
        assert 0 < build.medium.frames_delivered < recipients

    def test_lossy_medium_drops_some_frames(self):
        sim, medium = _setup(loss_rate=0.5)
        a = FakeStation("02:00:00:00:00:01", Point(0, 0))
        b = FakeStation("02:00:00:00:00:02", Point(10, 0))
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)
        for _ in range(200):
            medium.transmit(a, ProbeRequest(a.mac))
        sim.run(10.0)
        assert 40 < len(b.received) < 160
