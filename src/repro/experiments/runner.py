"""The experiment runner: scenario in, finished session out."""

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
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.faults.plan import FaultPlan
from repro.obs.telemetry import maybe_heartbeat
from repro.population.groups import GroupModel
from repro.population.pnl import PnlModel
from repro.wigle.database import WigleDatabase


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
    if group_probs is None:
        group_probs = GROUP_PROBS_RUSH if rush else GROUP_PROBS_BASE
    config = ScenarioConfig(
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
    build = build_scenario(city, wigle, config, attacker_factory)
    # Let in-flight visits and handshakes complete a little past the end.
    with maybe_heartbeat(None, duration, session_progress(build)):
        build.sim.run(duration + 30.0)
    session = build.attacker.session
    return ExperimentResult(
        session=session,
        summary=summarize(session),
        attacker=build.attacker,
        duration=duration,
        people_spawned=build.arrivals.people_spawned,
    )
