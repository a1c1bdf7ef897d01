"""Scenario assembly: wiring city, crowd, mobility and attacker into a
runnable simulation.

A scenario is defined by a venue profile plus workload knobs; the
builder returns a configured :class:`~repro.sim.simulation.Simulation`
with the attacker installed and a group spawner attached to the arrival
process.  Group members share one mobility object — they literally walk
(or sit) together, which is what gives freshly-hit SSIDs predictive
power over companions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.city.model import City
from repro.city.venues import Venue
from repro.devices.access_point import LegitAp
from repro.devices.phone import Phone
from repro.devices.profiles import DEFAULT_SCAN_PROFILE, ScanProfile
from repro.dot11.mac import random_ap_mac, random_client_mac
from repro.dot11.medium import Medium
from repro.dot11.timing import DEFAULT_SCAN_TIMING, ScanTiming
from repro.experiments.calibration import mean_group_size
from repro.faults.outages import OutageSchedule
from repro.faults.plan import FaultPlan
from repro.mobility.arrivals import ArrivalProcess
from repro.mobility.base import PathMobility
from repro.mobility.corridor import corridor_walk
from repro.mobility.static import static_dwell
from repro.mobility.waypoints import waypoint_wander
from repro.population.groups import GroupModel
from repro.population.pnl import PnlModel, VenueContext
from repro.population.synthesis import PersonFactory
from repro.sim.simulation import Simulation
from repro.util.rng import choice_cdf
from repro.wigle.database import WigleDatabase

PHONE_TX_RANGE_M = 45.0
"""Clients transmit *less* far than the 100 mW attacker (phone Wi-Fi
power is 15-30 mW): every client the attacker can hear, it can answer,
matching the prototype's effective asymmetry."""


@dataclass
class ScenarioConfig:
    """Everything that defines one runnable scenario."""

    venue_name: str
    mobility: str
    people_per_min: float
    duration: float
    seed: int = 0
    fidelity: str = "frame"
    group_probs: Sequence[float] = (0.62, 0.24, 0.10, 0.04)
    dwell_mean: float = 900.0
    scan_profile: ScanProfile = DEFAULT_SCAN_PROFILE
    timing: ScanTiming = DEFAULT_SCAN_TIMING
    pnl_model: Optional[PnlModel] = None
    group_model: Optional[GroupModel] = None
    hybrid_static_share: float = 0.35
    """For ``hybrid`` mobility: share of groups that settle (browsers)
    vs pass through."""

    quick_share: float = 0.45
    """For ``static`` mobility: share of grab-and-go visitors whose short
    dwell only allows a few scans — the clients the advanced attacker's
    ranking wins and the flat database loses."""

    quick_dwell_mean: float = 260.0

    walk_speed_mean: float = 1.3
    """Mean walking speed (m/s) for corridor crossers."""

    neighbour_count: int = 40
    """Nearby open SSIDs fed to PNL synthesis as the local context."""

    camped_share: float = 0.75
    """P(a person holding the venue's own open Wi-Fi is already camped
    on the real AP and therefore sends no probes) — the Section V-B
    observation that motivates the de-auth extension."""

    include_camped: bool = False
    """When True, camped clients are spawned as silent phones associated
    to a real venue AP (and a :class:`LegitAp` is installed), so a
    de-auth emitter can knock them loose.  When False they are simply
    absent, which is equivalent for every attacker that lacks de-auth."""

    loss_rate: float = 0.0
    """Uniform frame-loss probability of the medium (1.0 = blackout)."""

    faults: Optional[FaultPlan] = None
    """Deterministic fault plan (None injects nothing — byte-identical
    to a build from before fault injection existed)."""

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive, got %r" % self.duration)
        if self.people_per_min < 0:
            raise ValueError(
                "people_per_min must be non-negative, got %r" % self.people_per_min
            )
        if not 0.0 <= self.camped_share <= 1.0:
            raise ValueError(
                "camped_share must be a probability, got %r" % self.camped_share
            )
        choice_cdf(self.group_probs, "group_probs")  # raises naming the field


class ScenarioBuild:
    """The assembled, ready-to-run pieces of one scenario."""

    def __init__(
        self,
        sim: Simulation,
        medium: Medium,
        venue: Venue,
        factory: PersonFactory,
        arrivals: ArrivalProcess,
        config: ScenarioConfig,
    ):
        self.sim = sim
        self.medium = medium
        self.venue = venue
        self.factory = factory
        self.arrivals = arrivals
        self.config = config
        self.phones: List[Phone] = []
        self.venue_ap: Optional[LegitAp] = None
        self.attacker: object = None


def _make_group_mobility(
    kind: str,
    venue: Venue,
    now: float,
    rng: np.random.Generator,
    config: ScenarioConfig,
) -> PathMobility:
    if kind == "static":
        if rng.random() < config.quick_share:
            return static_dwell(
                venue.region, now, config.quick_dwell_mean, rng, dwell_min=90.0
            )
        return static_dwell(venue.region, now, config.dwell_mean, rng)
    if kind == "corridor":
        return corridor_walk(
            venue.region, now, rng, speed_mean=config.walk_speed_mean
        )
    if kind == "hybrid":
        if rng.random() < config.hybrid_static_share:
            # Browsers: a few legs with long pauses scaled by the
            # venue's dwell profile.
            return waypoint_wander(
                venue.region, now, rng,
                legs_mean=3.0, pause_mean=max(30.0, config.dwell_mean * 0.3),
            )
        # Passers-through cross the concourse like a corridor.
        return corridor_walk(
            venue.region, now, rng, extension=20.0,
            speed_mean=config.walk_speed_mean,
        )
    raise ValueError("unknown mobility kind %r" % kind)


def build_scenario(
    city: City,
    wigle: WigleDatabase,
    config: ScenarioConfig,
    attacker_factory: Callable[[Simulation, Medium, Venue], object],
) -> ScenarioBuild:
    """Assemble one scenario; :func:`repro.experiments.runner.run_build`
    runs it."""
    venue = city.venue(config.venue_name)
    sim = Simulation(seed=config.seed)
    plan = config.faults
    medium = Medium(
        sim,
        fidelity=config.fidelity,
        loss_rate=config.loss_rate,
        burst_loss=plan.channel if plan is not None else None,
    )

    near = wigle.nearest_free_ssids(venue.region.center, config.neighbour_count + 10)
    neighbours = [s for s in near if s not in venue.wifi_ssids]
    context = VenueContext(venue, neighbours[: config.neighbour_count])
    factory = PersonFactory(
        city,
        context,
        sim.rngs.stream("population"),
        pnl_model=config.pnl_model,
        group_model=config.group_model,
    )

    attacker = attacker_factory(sim, medium, venue)
    if plan is not None and plan.outages is not None:
        install = getattr(attacker, "install_outages", None)
        if install is not None:
            install(
                OutageSchedule.generate(
                    plan.outages,
                    config.duration,
                    sim.rngs.stream("faults.outage"),
                )
            )
    sim.add_entity(attacker)

    mobility_rng = sim.rngs.stream("mobility")
    mac_rng = sim.rngs.stream("macs")
    camped_rng = sim.rngs.stream("camped")
    build = ScenarioBuild(sim, medium, venue, factory, None, config)

    venue_ap = None
    if config.include_camped and venue.wifi_ssids and venue.free_wifi:
        venue_ap = LegitAp(
            mac=random_ap_mac(sim.rngs.stream("venue_ap_mac")),
            position=venue.region.center,
            medium=medium,
            ssid=venue.wifi_ssids[0],
        )
        sim.add_entity(venue_ap)
    build.venue_ap = venue_ap

    open_venue_ssids = tuple(venue.wifi_ssids) if venue.free_wifi else ()

    def _is_camped(person) -> bool:
        if not open_venue_ssids:
            return False
        holds = any(
            s in person.pnl and person.pnl[s].auto_joinable
            for s in open_venue_ssids
        )
        return holds and camped_rng.random() < config.camped_share

    def spawn(size: int, now: float) -> None:
        people = factory.make_group(size)
        mobility = _make_group_mobility(
            config.mobility, venue, now, mobility_rng, config
        )
        for person in people:
            camped = _is_camped(person)
            if camped and venue_ap is None:
                continue  # silently camped on the real AP: never probes
            phone = Phone(
                mac=random_client_mac(mac_rng),
                person=person,
                mobility=mobility,
                medium=medium,
                scan_profile=config.scan_profile,
                timing=config.timing,
                tx_range=PHONE_TX_RANGE_M,
                camped_bssid=venue_ap.mac if camped else None,
            )
            build.phones.append(phone)
            sim.add_entity(phone)

    groups_per_min = config.people_per_min / max(
        1e-9, mean_group_size(config.group_probs)
    )
    arrivals = ArrivalProcess(
        groups_per_min,
        spawn,
        group_size_probs=config.group_probs,
        stop_at=config.duration,
    )
    sim.add_entity(arrivals)
    build.arrivals = arrivals
    build.attacker = attacker
    return build

