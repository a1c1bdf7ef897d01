"""Tests for the medium's broadcast resolution.

A broadcast is checked against the attached stations in attach order.
On a channel that draws no randomness per recipient, a probe request is
checked against the listeners alone: the stations that hear probe
requests.  Random worlds (layouts, mobility and frame kinds drawn from
a layout RNG seeded apart from the simulation) are run and their
lossless delivery logs compared with an oracle written here: for each
transmission, every listener (or every station, for frames that are
not probes) inside the sender's reach at delivery time, in attach
order.  A lossy world must deliver a subsequence of the same oracle
over every station.

Stations may declare ``hears_probe_requests = False``; a world with such
stations is also run against its all-hearing twin, which must agree on
everything the listeners see and, on channels that draw randomness per
recipient, on everything at all.
"""

import numpy as np
import pytest

from repro.devices.phone import Phone
from repro.dot11.frames import Beacon, ProbeRequest, ProbeResponse
from repro.dot11.medium import Medium
from repro.dot11.propagation import LogDistanceShadowing
from repro.faults.plan import GilbertElliottParams
from repro.geo.point import Point
from repro.sim.simulation import Simulation


class MovingStation:
    """Linear-motion station logging every receive, to its own log and
    to an optional journal shared by a whole world."""

    def __init__(self, mac, origin, velocity=(0.0, 0.0), journal=None):
        self.mac = mac
        self._origin = origin
        self._velocity = velocity
        self.log = []
        self._journal = journal

    def position_at(self, time):
        return Point(
            self._origin.x + self._velocity[0] * time,
            self._origin.y + self._velocity[1] * time,
        )

    def receive(self, frame, time):
        entry = (self.mac, frame.src, time)
        self.log.append(entry)
        if self._journal is not None:
            self._journal.append(entry)


def _hears_probes(station):
    return getattr(station, "hears_probe_requests", True)


def _build_world(
    layout_seed,
    n_stations=40,
    n_frames=60,
    area_m=600.0,
    loss_rate=0.0,
    burst_loss=None,
    moving_share=0.5,
    deaf_every=0,
    beacon_share=0.0,
    propagation=None,
    sim_seed=9,
):
    """One scripted world; returns (sim, medium, stations, ranges, sent,
    journal) ready to run.

    All randomness comes from a layout RNG seeded independently of the
    simulation, so twin worlds are built from byte-identical
    ingredients.  Every ``deaf_every``-th station declares that it drops
    probe requests (its log still records every receive call, so a
    skipped delivery shows as a missing entry).  A ``beacon_share`` of
    the frames are beacons, the rest broadcast probe requests.
    """
    rng = np.random.default_rng(layout_seed)
    sim = Simulation(seed=sim_seed)
    medium = Medium(
        sim,
        loss_rate=loss_rate,
        burst_loss=burst_loss,
        propagation=propagation,
    )
    journal = []
    stations = []
    ranges = {}
    for i in range(n_stations):
        origin = Point(rng.uniform(0, area_m), rng.uniform(0, area_m))
        if rng.random() < moving_share:
            velocity = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        else:
            velocity = (0.0, 0.0)
        st = MovingStation(f"02:00:00:00:00:{i:02x}", origin, velocity, journal)
        if deaf_every and i % deaf_every == 0:
            st.hears_probe_requests = False
        stations.append(st)
        ranges[st.mac] = float(rng.uniform(40, 80))
        medium.attach(st, ranges[st.mac])
    sent = []
    for _ in range(n_frames):
        sender = stations[int(rng.integers(0, n_stations))]
        if rng.random() < beacon_share:
            frame = Beacon(sender.mac, "net")
        else:
            frame = ProbeRequest(sender.mac)
        airtime = float(rng.uniform(0.01, 30))
        medium.transmit(sender, frame, airtime=airtime)
        sent.append((sender, frame, airtime))
    return sim, medium, stations, ranges, sent, journal


def _oracle(stations, ranges, sent, probes_to_listeners):
    """(receive journal, stations examined) a disc-propagation world
    must produce on a lossless channel.

    For each transmission in delivery order, every station other than
    the sender within its reach at delivery time, in attach order; with
    ``probes_to_listeners``, probe requests are checked against the
    stations that hear them only."""
    journal = []
    examined = 0
    for sender, frame, time in sorted(sent, key=lambda item: item[2]):
        pool = stations
        if probes_to_listeners and isinstance(frame, ProbeRequest):
            pool = [st for st in stations if _hears_probes(st)]
        examined += len(pool)
        pos = sender.position_at(time)
        for st in pool:
            if st is not sender and (
                pos.distance_to(st.position_at(time)) <= ranges[sender.mac]
            ):
                journal.append((st.mac, sender.mac, time))
    return journal, examined


def _run_world(**kwargs):
    sim, medium, stations, ranges, sent, journal = _build_world(**kwargs)
    sim.run(40.0)
    log = []
    for st in stations:
        log.extend(st.log)
    log.sort()
    return {
        "journal": journal,
        "log": log,
        "delivered": medium.frames_delivered,
        "fault_lost": medium.fault_frames_lost,
        "metrics": sim.metrics.to_dict()["counters"],
        "medium": medium,
        "stations": stations,
        "ranges": ranges,
        "sent": sent,
        "deaf": {st.mac for st in stations if not _hears_probes(st)},
    }


def _split_log(run, deaf):
    """(entries of stations outside ``deaf``, entries of those in it)."""
    log = run["log"]
    return (
        [entry for entry in log if entry[0] not in deaf],
        [entry for entry in log if entry[0] in deaf],
    )


def _assert_matches_oracle(**kwargs):
    """A lossless disc world, with deaf stations and beacons mixed in,
    delivers exactly the oracle's journal."""
    run = _run_world(deaf_every=3, beacon_share=0.25, **kwargs)
    journal, examined = _oracle(
        run["stations"], run["ranges"], run["sent"], probes_to_listeners=True
    )
    assert journal  # the world is not trivially silent
    assert run["journal"] == journal
    assert run["delivered"] == len(journal)
    assert run["medium"].index_candidates == examined
    # Both pools ran: deaf stations heard beacons, never a probe.
    assert any(entry[0] in run["deaf"] for entry in journal)
    return run


def _assert_lossy_subsequence(**kwargs):
    """On a lossy channel every station takes its loss draw, so the
    journal is the all-station oracle with some entries dropped."""
    run = _run_world(deaf_every=3, **kwargs)
    journal, _ = _oracle(
        run["stations"], run["ranges"], run["sent"], probes_to_listeners=False
    )
    remaining = iter(journal)
    assert all(entry in remaining for entry in run["journal"])
    assert 0 < len(run["journal"]) < len(journal)
    assert _split_log(run, run["deaf"])[1]  # deaf stations took probes
    return run


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("layout_seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_randomized_layouts_static(self, layout_seed):
        _assert_matches_oracle(layout_seed=layout_seed, moving_share=0.0)

    @pytest.mark.parametrize("layout_seed", [10, 11, 12, 13, 14, 15])
    def test_randomized_layouts_mobile(self, layout_seed):
        _assert_matches_oracle(layout_seed=layout_seed, moving_share=0.8)

    @pytest.mark.parametrize("layout_seed", [20, 21, 22])
    def test_with_uniform_loss(self, layout_seed):
        _assert_lossy_subsequence(layout_seed=layout_seed, loss_rate=0.25)

    @pytest.mark.parametrize("layout_seed", [30, 31, 32])
    def test_with_gilbert_elliott_faults(self, layout_seed):
        run = _assert_lossy_subsequence(
            layout_seed=layout_seed,
            loss_rate=0.1,
            burst_loss=GilbertElliottParams(),
        )
        assert run["fault_lost"] > 0  # the fault chain genuinely fired


class TestProbeListeners:
    """Stations that drop probe requests vs their all-hearing twins."""

    @pytest.mark.parametrize("layout_seed", [70, 71, 72, 73])
    def test_lossless_listeners_see_the_same_world(self, layout_seed):
        kwargs = dict(layout_seed=layout_seed, moving_share=0.6)
        deaf = _run_world(deaf_every=3, **kwargs)
        twin = _run_world(**kwargs)
        listeners, deaf_log = _split_log(deaf, deaf["deaf"])
        twin_listeners, twin_deaf_log = _split_log(twin, deaf["deaf"])
        assert listeners == twin_listeners
        assert deaf["metrics"] == twin["metrics"]
        assert deaf["fault_lost"] == twin["fault_lost"] == 0
        # The twin's stations in those slots did hear probes; the deaf
        # ones were never handed one, and never even considered.
        assert twin_deaf_log
        assert deaf_log == []
        assert deaf["medium"].index_candidates < twin["medium"].index_candidates

    @pytest.mark.parametrize(
        "channel",
        [
            dict(loss_rate=0.25),
            dict(burst_loss=GilbertElliottParams()),
            dict(propagation=LogDistanceShadowing()),
        ],
        ids=["uniform-loss", "gilbert-elliott", "shadowing"],
    )
    @pytest.mark.parametrize("layout_seed", [80, 81])
    def test_random_channels_resolve_every_station(self, channel, layout_seed):
        """Deaf stations still take their loss and propagation draws, so
        every later draw, and so every log, matches the twin's."""
        kwargs = dict(layout_seed=layout_seed, moving_share=0.6, **channel)
        deaf = _run_world(deaf_every=3, **kwargs)
        twin = _run_world(**kwargs)
        assert deaf["log"] == twin["log"]
        assert deaf["delivered"] == twin["delivered"]
        assert deaf["fault_lost"] == twin["fault_lost"]
        assert deaf["metrics"] == twin["metrics"]
        assert _split_log(deaf, deaf["deaf"])[1]
        if "burst_loss" in channel:
            assert deaf["fault_lost"] > 0

    def test_other_broadcast_frames_reach_deaf_stations(self):
        sim = Simulation(seed=3)
        medium = Medium(sim)
        ap = MovingStation("02:00:00:00:00:a0", Point(0, 0))
        deaf = MovingStation("02:00:00:00:00:d0", Point(10, 0), (1.0, 0.0))
        deaf.hears_probe_requests = False
        medium.attach(ap, 50.0)
        medium.attach(deaf, 50.0)
        medium.transmit(ap, Beacon(ap.mac, "net"), airtime=0.5)
        medium.transmit(ap, ProbeRequest(ap.mac), airtime=1.0)
        sim.run(2.0)
        assert deaf.log == [(deaf.mac, ap.mac, 0.5)]

    def test_deaf_station_detaches_mid_delivery(self):
        sim = Simulation(seed=4)
        medium = Medium(sim)
        a = MovingStation("02:00:00:00:00:aa", Point(0, 0))
        b = MovingStation("02:00:00:00:00:bb", Point(10, 0))
        c = MovingStation("02:00:00:00:00:cc", Point(20, 0))
        b.hears_probe_requests = False
        for st in (a, b, c):
            medium.attach(st, 50.0)

        def leave(frame, time):
            MovingStation.receive(b, frame, time)
            medium.detach(b.mac)

        b.receive = leave
        medium.transmit(a, Beacon(a.mac, "net"))
        sim.run(1.0)
        # b left while the beacon was being delivered; c, later in attach
        # order, still gets it.
        assert len(b.log) == 1 and len(c.log) == 1
        medium.transmit(a, Beacon(a.mac, "net"))
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(2.0)
        assert len(b.log) == 1
        assert len(c.log) == 3
        medium.attach(b, 50.0)  # back, and still deaf
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(3.0)
        assert len(b.log) == 1
        assert len(c.log) == 4

    def test_canteen_phones_never_see_a_probe_request(self, city, wigle, monkeypatch):
        from repro.experiments.attackers import make_cityhunter
        from repro.experiments.calibration import venue_profile
        from repro.experiments.runner import run_experiment

        kinds = []
        original = Phone.receive

        def receive(phone, frame, time):
            kinds.append(type(frame).__name__)
            original(phone, frame, time)

        monkeypatch.setattr(Phone, "receive", receive)
        result = run_experiment(
            city,
            wigle,
            make_cityhunter(wigle, city.heatmap),
            venue_profile("canteen"),
            300.0,
            seed=5,
        )
        assert result.session.clients  # the attacker heard the phones
        assert "ProbeResponse" in kinds
        assert "ProbeRequest" not in kinds


class TestMidDeliveryMutation:
    """Regression: attach/detach during a delivery must neither crash
    nor perturb the already-resolved recipient snapshot.  ``probe``
    picks the pool a broadcast is checked against: a probe request on
    this lossless channel is checked against the listeners, a beacon
    against every station."""

    def _world(self):
        sim = Simulation(seed=4)
        medium = Medium(sim)
        a = MovingStation("02:00:00:00:00:aa", Point(0, 0))
        b = MovingStation("02:00:00:00:00:bb", Point(10, 0))
        c = MovingStation("02:00:00:00:00:cc", Point(20, 0))
        return sim, medium, a, b, c

    @staticmethod
    def _frame(probe, sender):
        return ProbeRequest(sender.mac) if probe else Beacon(sender.mac, "net")

    @pytest.mark.parametrize("probe", [True, False])
    def test_receiver_detaches_peer_mid_delivery(self, probe):
        sim, medium, a, b, c = self._world()
        for st in (a, b, c):
            medium.attach(st, 50.0)

        def detach_c(frame, time):
            MovingStation.receive(b, frame, time)
            medium.detach(c.mac)

        b.receive = detach_c
        medium.transmit(a, self._frame(probe, a))
        sim.run(1.0)
        # c was in the snapshot (in range at delivery time) so it still
        # receives this frame; it is gone for the next one.
        assert len(c.log) == 1
        medium.transmit(a, self._frame(probe, a))
        sim.run(2.0)
        assert len(c.log) == 1
        assert len(b.log) == 2

    @pytest.mark.parametrize("probe", [True, False])
    def test_receiver_attaches_newcomer_mid_delivery(self, probe):
        sim, medium, a, b, c = self._world()
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)

        def attach_c(frame, time):
            MovingStation.receive(b, frame, time)
            if not medium.is_attached(c.mac):
                medium.attach(c, 50.0)

        b.receive = attach_c
        medium.transmit(a, self._frame(probe, a))
        sim.run(1.0)
        # c joined after recipients were resolved: not this frame.
        assert c.log == []
        medium.transmit(a, self._frame(probe, a))
        sim.run(2.0)
        assert len(c.log) == 1

    def test_monitor_detaches_itself_during_burst(self):
        sim, medium, a, b, c = self._world()
        medium = Medium(sim, fidelity="burst")
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)
        medium.attach(c, 50.0, promiscuous=True)

        def self_detach(frame, time):
            MovingStation.receive(c, frame, time)
            medium.detach(c.mac)

        c.receive = self_detach
        from repro.dot11.capabilities import Security

        burst = [
            ProbeResponse(a.mac, b.mac, f"net-{i}", Security.OPEN)
            for i in range(3)
        ]
        medium.transmit_response_burst(a, burst)
        sim.run(1.0)
        assert len(c.log) == 3  # full overheard burst despite self-detach
        assert len(b.log) == 3


class TestIndexMechanics:
    def test_reattach_keeps_delivery_order(self):
        """Re-attaching an existing MAC keeps its slot in the delivery
        order: a re-attached world delivers (and, on a lossy channel,
        draws its losses) in the same order as a world attached once."""
        for loss_rate in (0.0, 0.5):
            journals = []
            for reattach in (True, False):
                sim = Simulation(seed=8)
                medium = Medium(sim, loss_rate=loss_rate)
                journal = []
                stations = [
                    MovingStation(
                        f"02:00:00:00:01:{i:02x}", Point(5.0 * i, 0), journal=journal
                    )
                    for i in range(12)
                ]
                for st in stations:
                    medium.attach(st, 100.0)
                if reattach:
                    medium.attach(stations[3], 100.0)
                for sender in (stations[0], stations[7]):
                    medium.transmit(sender, ProbeRequest(sender.mac))
                sim.run(1.0)
                journals.append(journal)
            assert journals[0] == journals[1]
            assert journals[0]

    def test_detach_unknown_mac_with_index(self):
        sim = Simulation(seed=0)
        medium = Medium(sim)
        medium.detach("02:aa:aa:aa:aa:aa")  # must not raise

    def test_index_stats_never_touch_metrics(self):
        """The medium's scan count stays out of sim.metrics, whose
        counters the golden digests pin."""
        run = _run_world(layout_seed=60, moving_share=0.5)
        assert run["medium"].index_candidates > 0
        for key in run["metrics"]:
            assert "index" not in key and "candidate" not in key
