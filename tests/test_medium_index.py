"""Differential tests: spatial-index medium vs brute-force medium.

The index is contractually a *pure accelerator* — every test here runs
the same scripted world twice, once with ``index=True`` and once with
``index=False``, and demands bit-identical delivery logs (receiver,
sender, time triples in order), delivered-frame counts and fault-loss
metrics.  Layouts, mobility, loss rates and fault plans are randomized
across seeds so the equivalence is exercised well beyond any single
hand-built topology.

Stations may declare ``hears_probe_requests = False``; a world with such
stations is also run against its all-hearing twin, which must agree on
everything the listeners see and, on channels that draw randomness per
recipient, on everything at all.
"""

import math
import os

import numpy as np
import pytest

from repro.devices.phone import Phone
from repro.dot11.frames import Beacon, ProbeRequest, ProbeResponse
from repro.dot11.medium import (
    MEDIUM_INDEX_ENV,
    Medium,
    resolve_medium_index,
)
from repro.dot11.propagation import LogDistanceShadowing
from repro.faults.plan import GilbertElliottParams
from repro.geo.point import Point
from repro.sim.simulation import Simulation


class MovingStation:
    """Linear-motion station with an honest speed bound, logging receives."""

    def __init__(self, mac, origin, velocity=(0.0, 0.0)):
        self.mac = mac
        self._origin = origin
        self._velocity = velocity
        self.max_speed_mps = math.hypot(*velocity)
        self.log = []

    def position_at(self, time):
        return Point(
            self._origin.x + self._velocity[0] * time,
            self._origin.y + self._velocity[1] * time,
        )

    def receive(self, frame, time):
        self.log.append((self.mac, frame.src, time))


class UnboundedStation(MovingStation):
    """Same motion, but refuses to promise a speed bound."""

    def __init__(self, mac, origin, velocity=(0.0, 0.0)):
        super().__init__(mac, origin, velocity)
        self.max_speed_mps = None


def _build_world(
    index,
    layout_seed,
    n_stations=40,
    n_frames=60,
    area_m=600.0,
    loss_rate=0.0,
    burst_loss=None,
    moving_share=0.5,
    unbounded_every=0,
    deaf_every=0,
    propagation=None,
    sim_seed=9,
):
    """One scripted world; returns (sim, medium, stations) ready to run.

    All randomness comes from a layout RNG seeded independently of the
    simulation, so the index=True and index=False worlds are built from
    byte-identical ingredients.  Every ``deaf_every``-th station declares
    that it drops probe requests (its log still records every receive
    call, so a skipped delivery shows as a missing entry).
    """
    rng = np.random.default_rng(layout_seed)
    sim = Simulation(seed=sim_seed)
    medium = Medium(
        sim,
        loss_rate=loss_rate,
        burst_loss=burst_loss,
        propagation=propagation,
        index=index,
    )
    stations = []
    for i in range(n_stations):
        origin = Point(rng.uniform(0, area_m), rng.uniform(0, area_m))
        if rng.random() < moving_share:
            velocity = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        else:
            velocity = (0.0, 0.0)
        cls = (
            UnboundedStation
            if unbounded_every and i % unbounded_every == 0
            else MovingStation
        )
        st = cls(f"02:00:00:00:00:{i:02x}", origin, velocity)
        if deaf_every and i % deaf_every == 0:
            st.hears_probe_requests = False
        stations.append(st)
        medium.attach(st, float(rng.uniform(40, 80)))
    for _ in range(n_frames):
        sender = stations[int(rng.integers(0, n_stations))]
        medium.transmit(
            sender, ProbeRequest(sender.mac), airtime=float(rng.uniform(0.01, 30))
        )
    return sim, medium, stations


def _run_world(index, **kwargs):
    sim, medium, stations = _build_world(index, **kwargs)
    sim.run(40.0)
    log = []
    for st in stations:
        log.extend(st.log)
    log.sort()
    return {
        "log": log,
        "delivered": medium.frames_delivered,
        "fault_lost": medium.fault_frames_lost,
        "metrics": sim.metrics.to_dict()["counters"],
        "medium": medium,
        "deaf": {
            st.mac
            for st in stations
            if not getattr(st, "hears_probe_requests", True)
        },
    }


def _split_log(run, deaf):
    """(entries of stations outside ``deaf``, entries of those in it)."""
    log = run["log"]
    return (
        [entry for entry in log if entry[0] not in deaf],
        [entry for entry in log if entry[0] in deaf],
    )


def _assert_equivalent(kwargs):
    fast = _run_world(True, **kwargs)
    slow = _run_world(False, **kwargs)
    assert fast["log"] == slow["log"]
    assert fast["delivered"] == slow["delivered"]
    assert fast["fault_lost"] == slow["fault_lost"]
    assert fast["metrics"] == slow["metrics"]
    return fast, slow


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("layout_seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_randomized_layouts_static(self, layout_seed):
        _assert_equivalent(dict(layout_seed=layout_seed, moving_share=0.0))

    @pytest.mark.parametrize("layout_seed", [10, 11, 12, 13, 14, 15])
    def test_randomized_layouts_mobile(self, layout_seed):
        fast, _ = _assert_equivalent(
            dict(layout_seed=layout_seed, moving_share=0.8)
        )
        assert fast["medium"].index_queries > 0

    @pytest.mark.parametrize("layout_seed", [20, 21, 22])
    def test_with_uniform_loss(self, layout_seed):
        _assert_equivalent(dict(layout_seed=layout_seed, loss_rate=0.25))

    @pytest.mark.parametrize("layout_seed", [30, 31, 32])
    def test_with_gilbert_elliott_faults(self, layout_seed):
        fast, _ = _assert_equivalent(
            dict(
                layout_seed=layout_seed,
                loss_rate=0.1,
                burst_loss=GilbertElliottParams(),
            )
        )
        # The fault chain genuinely fired, so its draws were compared.
        assert fast["fault_lost"] > 0

    @pytest.mark.parametrize("layout_seed", [40, 41])
    def test_with_unbounded_stations_mixed_in(self, layout_seed):
        """Stations without a speed bound ride the exact side path."""
        _assert_equivalent(
            dict(layout_seed=layout_seed, moving_share=0.7, unbounded_every=3)
        )

    def test_index_actually_prunes(self):
        """In a spread layout the index must visit fewer candidates than
        a full scan would — otherwise it is dead weight."""
        fast = _run_world(
            True, layout_seed=50, n_stations=80, area_m=2000.0, moving_share=0.3
        )
        medium = fast["medium"]
        assert medium.index_queries > 0
        scanned = medium.index_candidates / medium.index_queries
        assert scanned < 80 * 0.5  # at least half the scan avoided


class TestProbeListeners:
    """Stations that drop probe requests vs their all-hearing twins."""

    @pytest.mark.parametrize("layout_seed", [70, 71, 72, 73])
    def test_lossless_listeners_see_the_same_world(self, layout_seed):
        kwargs = dict(layout_seed=layout_seed, moving_share=0.6, unbounded_every=5)
        deaf = _run_world(True, deaf_every=3, **kwargs)
        twin = _run_world(True, **kwargs)
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
        deaf = _run_world(True, deaf_every=3, **kwargs)
        twin = _run_world(True, **kwargs)
        assert deaf["log"] == twin["log"]
        assert deaf["delivered"] == twin["delivered"]
        assert deaf["fault_lost"] == twin["fault_lost"]
        assert deaf["metrics"] == twin["metrics"]
        assert _split_log(deaf, deaf["deaf"])[1]
        if "burst_loss" in channel:
            assert deaf["fault_lost"] > 0

    @pytest.mark.parametrize("layout_seed", [90, 91, 92])
    def test_index_on_off_parity_with_deaf_stations(self, layout_seed):
        kwargs = dict(
            layout_seed=layout_seed,
            moving_share=0.7,
            unbounded_every=4,
            deaf_every=3,
        )
        fast = _run_world(True, **kwargs)
        slow = _run_world(False, **kwargs)
        listeners, deaf_log = _split_log(fast, fast["deaf"])
        slow_listeners, slow_deaf_log = _split_log(slow, fast["deaf"])
        assert listeners == slow_listeners
        assert fast["metrics"] == slow["metrics"]
        # The reference path hands deaf stations every probe in range.
        assert deaf_log == []
        assert slow_deaf_log

    @pytest.mark.parametrize("layout_seed", [93, 94])
    def test_index_on_off_parity_with_deaf_stations_lossy(self, layout_seed):
        _assert_equivalent(
            dict(
                layout_seed=layout_seed,
                moving_share=0.7,
                deaf_every=3,
                loss_rate=0.25,
            )
        )

    @pytest.mark.parametrize("index", [True, False])
    def test_other_broadcast_frames_reach_deaf_stations(self, index):
        sim = Simulation(seed=3)
        medium = Medium(sim, index=index)
        ap = MovingStation("02:00:00:00:00:a0", Point(0, 0))
        deaf = MovingStation("02:00:00:00:00:d0", Point(10, 0), (1.0, 0.0))
        deaf.hears_probe_requests = False
        medium.attach(ap, 50.0)
        medium.attach(deaf, 50.0)
        medium.transmit(ap, Beacon(ap.mac, "net"), airtime=0.5)
        medium.transmit(ap, ProbeRequest(ap.mac), airtime=1.0)
        sim.run(2.0)
        assert deaf.log[0] == (deaf.mac, ap.mac, 0.5)
        assert len(deaf.log) == (1 if index else 2)

    @pytest.mark.parametrize("index", [True, False])
    def test_deaf_station_detaches_mid_delivery(self, index):
        sim = Simulation(seed=4)
        medium = Medium(sim, index=index)
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
        assert len(b.log) == (1 if index else 2)
        assert len(c.log) == 4

    def test_canteen_phones_never_see_a_probe_request(
        self, city, wigle, monkeypatch
    ):
        from repro.experiments.attackers import make_cityhunter
        from repro.experiments.calibration import venue_profile
        from repro.experiments.runner import run_experiment

        monkeypatch.delenv(MEDIUM_INDEX_ENV, raising=False)
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
    nor perturb the already-resolved recipient snapshot."""

    def _world(self, index):
        sim = Simulation(seed=4)
        medium = Medium(sim, index=index)
        a = MovingStation("02:00:00:00:00:aa", Point(0, 0))
        b = MovingStation("02:00:00:00:00:bb", Point(10, 0))
        c = MovingStation("02:00:00:00:00:cc", Point(20, 0))
        return sim, medium, a, b, c

    @pytest.mark.parametrize("index", [True, False])
    def test_receiver_detaches_peer_mid_delivery(self, index):
        sim, medium, a, b, c = self._world(index)
        for st in (a, b, c):
            medium.attach(st, 50.0)

        def detach_c(frame, time):
            MovingStation.receive(b, frame, time)
            medium.detach(c.mac)

        b.receive = detach_c
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(1.0)
        # c was in the snapshot (in range at delivery time) so it still
        # receives this frame; it is gone for the next one.
        assert len(c.log) == 1
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(2.0)
        assert len(c.log) == 1
        assert len(b.log) == 2

    @pytest.mark.parametrize("index", [True, False])
    def test_receiver_attaches_newcomer_mid_delivery(self, index):
        sim, medium, a, b, c = self._world(index)
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)

        def attach_c(frame, time):
            MovingStation.receive(b, frame, time)
            if not medium.is_attached(c.mac):
                medium.attach(c, 50.0)

        b.receive = attach_c
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(1.0)
        # c joined after recipients were resolved: not this frame.
        assert c.log == []
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(2.0)
        assert len(c.log) == 1

    @pytest.mark.parametrize("index", [True, False])
    def test_monitor_detaches_itself_during_burst(self, index):
        sim, medium, a, b, c = self._world(index)
        medium = Medium(sim, fidelity="burst", index=index)
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
        """Re-attaching an existing MAC must not move it to the back of
        the delivery order (dict insertion order is preserved, and the
        index's sequence numbers must agree)."""
        results = []
        for index in (True, False):
            sim = Simulation(seed=8)
            medium = Medium(sim, loss_rate=0.5, index=index)
            stations = [
                MovingStation(f"02:00:00:00:01:{i:02x}", Point(5.0 * i, 0))
                for i in range(12)
            ]
            for st in stations:
                medium.attach(st, 100.0)
            medium.attach(stations[3], 100.0)  # re-attach, same slot
            medium.transmit(stations[0], ProbeRequest(stations[0].mac))
            sim.run(1.0)
            log = []
            for st in stations:
                log.extend(st.log)
            results.append(sorted(log))
        assert results[0] == results[1]

    def test_stochastic_propagation_disables_index(self):
        sim = Simulation(seed=1)
        medium = Medium(
            sim, propagation=LogDistanceShadowing(), index=True
        )
        assert not medium.index_active

    def test_deterministic_propagation_enables_index(self):
        sim = Simulation(seed=1)
        assert Medium(sim, index=True).index_active
        assert not Medium(sim, index=False).index_active

    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv(MEDIUM_INDEX_ENV, raising=False)
        assert resolve_medium_index() is True
        for off in ("0", "off", "false", "no", "OFF", " Off "):
            monkeypatch.setenv(MEDIUM_INDEX_ENV, off)
            assert resolve_medium_index() is False
        monkeypatch.setenv(MEDIUM_INDEX_ENV, "1")
        assert resolve_medium_index() is True
        # Explicit argument beats the environment.
        monkeypatch.setenv(MEDIUM_INDEX_ENV, "off")
        assert resolve_medium_index(True) is True

    def test_detach_unknown_mac_with_index(self):
        sim = Simulation(seed=0)
        medium = Medium(sim, index=True)
        medium.detach("02:aa:aa:aa:aa:aa")  # must not raise

    def test_index_stats_never_touch_metrics(self):
        """Index bookkeeping must stay out of sim.metrics — counters
        there are part of the golden on/off equivalence contract."""
        fast = _run_world(True, layout_seed=60, moving_share=0.5)
        assert fast["medium"].index_queries > 0
        for key in fast["metrics"]:
            assert "index" not in key

    def test_index_enabled_by_default_env(self, monkeypatch):
        monkeypatch.delenv(MEDIUM_INDEX_ENV, raising=False)
        sim = Simulation(seed=0)
        assert Medium(sim).index_active

    def test_env_off_disables_by_default(self, monkeypatch):
        monkeypatch.setenv(MEDIUM_INDEX_ENV, "off")
        sim = Simulation(seed=0)
        assert not Medium(sim).index_active
        assert os.environ[MEDIUM_INDEX_ENV] == "off"
