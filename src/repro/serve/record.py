"""Recording the inline simulator's probe stream and decisions.

The differential harness needs two things from one simulated attack
run: the exact sequence of attacker-visible events (probes heard,
associations received — post frame loss, post outage, in medium
delivery order) and the exact sequence of burst decisions the inline
attacker made in response.  :class:`RecordingCityHunter` is a
byte-for-byte passthrough subclass of the real attacker that logs both
at the strategy-hook boundary — the same boundary
:class:`~repro.serve.core.RankingCore` implements — without perturbing
a single draw, weight or frame (asserted by the differential tests,
which compare its session against an unrecorded run's).

:func:`record_probe_stream` packages the common case: build a venue
scenario around a recording attacker, run it, and hand back the event
stream, the decision log and the scenario parameters needed to seed an
equivalent :class:`~repro.serve.core.RankingCore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.city.model import City
from repro.core.config import CityHunterConfig
from repro.core.hunter import CityHunter
from repro.dot11.mac import random_ap_mac
from repro.experiments.calibration import venue_profile
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.geo.point import Point
from repro.serve.core import RankingCore
from repro.serve.events import BurstDecision, Event, FeedbackEvent, ProbeEvent
from repro.wigle.database import WigleDatabase


@dataclass
class StreamRecorder:
    """Ordered logs of one attacker's inputs and outputs."""

    events: List[Event] = field(default_factory=list)
    decisions: List[BurstDecision] = field(default_factory=list)


class RecordingCityHunter(CityHunter):
    """The advanced attacker, with a wire-tap at the hook boundary."""

    name = "city-hunter-recording"

    def __init__(self, *args, recorder: StreamRecorder, **kwargs):
        super().__init__(*args, **kwargs)
        self._recorder = recorder

    def on_broadcast_probe(self, client, time):
        self._recorder.events.append(ProbeEvent(str(client), time))
        super().on_broadcast_probe(client, time)

    def on_direct_probe(self, client, ssid, time):
        self._recorder.events.append(ProbeEvent(str(client), time, ssid))
        super().on_direct_probe(client, ssid, time)

    def on_hit(self, client, ssid, time):
        self._recorder.events.append(FeedbackEvent(str(client), time, ssid))
        super().on_hit(client, ssid, time)

    def send_ssid_burst(self, client, metas, time):
        if metas:
            self._recorder.decisions.append(
                BurstDecision(str(client), time, "burst", tuple(metas))
            )
        super().send_ssid_burst(client, metas, time)

    def send_mimic(self, client, ssid, time):
        self._recorder.decisions.append(
            BurstDecision(str(client), time, "mimic", ((ssid, "mimic", "mimic"),))
        )
        super().send_mimic(client, ssid, time)


@dataclass
class SimRecording:
    """One recorded scenario: the stream, the answers, the parameters."""

    events: List[Event]
    decisions: List[BurstDecision]
    venue: str
    seed: int
    position: Point
    config: CityHunterConfig
    result: ExperimentResult

    def seeded_core(
        self, wigle: WigleDatabase, city: City
    ) -> RankingCore:
        """A service core seeded identically to the recorded attacker."""
        return RankingCore.seeded(
            wigle,
            city.heatmap,
            self.position,
            config=self.config,
            seed=self.seed,
        )


def record_probe_stream(
    city: City,
    wigle: WigleDatabase,
    venue: str = "canteen",
    duration: float = 300.0,
    seed: int = 7,
    config: Optional[CityHunterConfig] = None,
    fidelity: str = "frame",
) -> SimRecording:
    """Run one recorded venue scenario and return its stream."""
    config = config if config is not None else CityHunterConfig()
    recorder = StreamRecorder()
    profile = venue_profile(venue)
    position_box: List[Point] = []

    def factory(sim, medium, scenario_venue):
        position_box.append(scenario_venue.region.center)
        return RecordingCityHunter(
            random_ap_mac(sim.rngs.stream("attacker_mac")),
            scenario_venue.region.center,
            medium,
            wigle=wigle,
            heatmap=city.heatmap,
            config=config,
            recorder=recorder,
        )

    result = run_experiment(
        city,
        wigle,
        factory,
        profile,
        duration=duration,
        seed=seed,
        fidelity=fidelity,
    )
    return SimRecording(
        events=recorder.events,
        decisions=recorder.decisions,
        venue=venue,
        seed=seed,
        position=position_box[0],
        config=config,
        result=result,
    )
