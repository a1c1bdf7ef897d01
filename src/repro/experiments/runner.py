"""The experiment runner: scenario in, finished session out.

Every venue deployment runs one way: :func:`venue_config` maps a
calibrated venue profile to a :class:`ScenarioConfig`,
:func:`~repro.experiments.scenarios.build_scenario` assembles it, and
:func:`run_build` runs it ``RUN_EXTRA_S`` past its duration under the
heartbeat gate.  :func:`run_experiment` chains the three, and the
parallel executor runs the same chain for every venue-plane spec.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.metrics import SessionSummary, summarize
from repro.analysis.session import AttackSession
from repro.city.model import City
from repro.experiments.calibration import (
    GROUP_PROBS_BASE,
    GROUP_PROBS_RUSH,
    VenueProfile,
    default_city,
)
from repro.experiments.scenarios import (
    ScenarioBuild,
    ScenarioConfig,
    build_scenario,
)
from repro.faults.plan import FaultPlan
from repro.obs.telemetry import maybe_heartbeat
from repro.population.groups import GroupModel
from repro.population.pnl import PnlModel
from repro.wigle.database import WigleDatabase

RUN_EXTRA_S = 30.0
"""Simulated seconds a deployment runs past its duration, so in-flight
visits and handshakes complete."""


def session_progress(build):
    """Zero-argument progress probe for the heartbeat thread.

    Returns ``(sim_time, hits_so_far)``.  Reads only — ``sim.now`` is a
    float and the clients dict is snapshotted via ``list``; a rare torn
    read smears one heartbeat and nothing else.
    """

    def probe():
        session = build.attacker.session
        hits = sum(1 for c in list(session.clients.values()) if c.connected)
        return build.sim.now, hits

    return probe


@dataclass
class ExperimentResult:
    """Everything one run produced."""

    session: AttackSession
    summary: SessionSummary
    attacker: object
    duration: float
    people_spawned: int

    @property
    def h(self) -> float:
        """Overall hit rate."""
        return self.summary.hit_rate

    @property
    def h_b(self) -> float:
        """Broadcast hit rate."""
        return self.summary.broadcast_hit_rate


def shared_wigle(city_seed: int = 42) -> WigleDatabase:
    """WiGLE registry over the shared default city.

    Cached *per process* and per seed value: parallel workers each build
    (or fork) their own instance, so no registry object is ever shared
    across process boundaries.  Within a process the cached instance is
    shared across runs, which is safe because :class:`WigleDatabase` is
    immutable — attackers that adapt SSID weights online do so in their
    own per-attacker
    :class:`~repro.core.ssid_database.WeightedSsidDatabase` and can
    never write back into this registry.
    """
    return _wigle(city_seed)


@functools.lru_cache(maxsize=None)
def _wigle(city_seed: int) -> WigleDatabase:
    wigle = WigleDatabase(default_city(city_seed).aps)
    # The city and this registry are immutable and never evicted, so every
    # full collection would re-scan them for nothing: move everything
    # alive now into the collector's permanent generation.
    gc.freeze()
    return wigle


def venue_config(
    profile: VenueProfile,
    duration: float,
    *,
    people_per_min: Optional[float],
    seed: int,
    fidelity: str,
    rush: bool,
    group_probs: Optional[Sequence[float]],
    pnl_model: Optional[PnlModel],
    group_model: Optional[GroupModel],
    faults: Optional[FaultPlan],
) -> ScenarioConfig:
    """The scenario of one deployment at a calibrated venue.

    Every field is the caller's (:func:`run_experiment` and the
    executor's specs hold the defaults).  ``people_per_min=None`` means
    the venue's Section III test rate, and ``group_probs=None`` the
    off-peak (or, with ``rush``, rush-hour) group-size mix.
    """
    if group_probs is None:
        group_probs = GROUP_PROBS_RUSH if rush else GROUP_PROBS_BASE
    return ScenarioConfig(
        venue_name=profile.venue_name,
        mobility=profile.mobility,
        people_per_min=(
            people_per_min
            if people_per_min is not None
            else profile.people_per_min_30min_test
        ),
        duration=duration,
        seed=seed,
        fidelity=fidelity,
        group_probs=tuple(group_probs),
        dwell_mean=profile.dwell_mean,
        hybrid_static_share=profile.hybrid_static_share,
        quick_share=profile.quick_share,
        pnl_model=pnl_model,
        group_model=group_model,
        faults=faults,
    )


def run_build(build: ScenarioBuild, run_extra: float = RUN_EXTRA_S) -> None:
    """Run a built scenario to ``duration + run_extra`` simulated
    seconds, heartbeating when ``REPRO_HEARTBEAT`` is set."""
    duration = build.config.duration
    with maybe_heartbeat(None, duration, session_progress(build)):
        build.sim.run(duration + run_extra)


def run_experiment(
    city: City,
    wigle: WigleDatabase,
    attacker_factory,
    profile: VenueProfile,
    duration: float,
    people_per_min: Optional[float] = None,
    seed: int = 0,
    fidelity: str = "frame",
    rush: bool = False,
    group_probs: Optional[Sequence[float]] = None,
    pnl_model: Optional[PnlModel] = None,
    group_model: Optional[GroupModel] = None,
    faults: Optional[FaultPlan] = None,
) -> ExperimentResult:
    """Run one attack deployment and summarise it."""
    config = venue_config(
        profile,
        duration,
        people_per_min=people_per_min,
        seed=seed,
        fidelity=fidelity,
        rush=rush,
        group_probs=group_probs,
        pnl_model=pnl_model,
        group_model=group_model,
        faults=faults,
    )
    build = build_scenario(city, wigle, config, attacker_factory)
    run_build(build)
    session = build.attacker.session
    return ExperimentResult(
        session=session,
        summary=summarize(session),
        attacker=build.attacker,
        duration=duration,
        people_spawned=build.arrivals.people_spawned,
    )
