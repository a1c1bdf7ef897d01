"""The :class:`Simulation` facade.

Owns the clock, scheduler, RNG registry, metrics registry and event
sink; higher layers register entities against it.  An *entity* is
anything with a ``start(sim)`` method — phones, attackers and arrival
processes all qualify.

Observability: ``sim.metrics`` is the run's
:class:`~repro.obs.registry.MetricsRegistry` and ``sim.events`` its
capped :class:`~repro.obs.events.EventSink`; both are cheap enough to
stay on for every run.  ``run``/``run_all`` are bracketed by spans
(``span.sim.start_entities``, ``span.sim.run``) so every batch records
its phase timeline.

Deep observability (both observers only — neither touches RNG draws,
scheduling or metrics, so golden digests are identical on or off):

* ``sim.lineage`` is the run's causal
  :class:`~repro.obs.lineage.LineageTrace` (``REPRO_LINEAGE`` env or the
  ``lineage=`` argument);
* ``profile=True`` (or ``REPRO_PROFILE``) attaches a
  :class:`~repro.obs.profiler.SimProfiler` to the scheduler, reachable
  as ``sim.profiler``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.obs.events import EventSink
from repro.obs.lineage import LineageTrace
from repro.obs.profiler import SimProfiler, env_profile_default
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import span
from repro.sim.clock import Clock
from repro.sim.events import EventHandle
from repro.sim.scheduler import Scheduler
from repro.util.rng import RngRegistry


class Simulation:
    """Top-level container for one simulated run."""

    def __init__(
        self,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventSink] = None,
        lineage: Optional[bool] = None,
        profile: Optional[bool] = None,
    ):
        self.rngs = RngRegistry(seed)
        self.clock = Clock()
        self.scheduler = Scheduler(self.clock)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.events = events if events is not None else EventSink()
        self.lineage = LineageTrace(enabled=lineage)
        if profile is None:
            profile = env_profile_default()
        if profile:
            self.scheduler.profiler = SimProfiler()
        self._entities: List[Any] = []
        self._started = False

    @property
    def profiler(self) -> Optional[SimProfiler]:
        """The attached profiler, or None when profiling is off."""
        return self.scheduler.profiler

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self.clock.now

    def at(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        return self.scheduler.schedule(delay, fn, *args)

    def at_time(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        return self.scheduler.schedule_at(time, fn, *args)

    def add_entity(self, entity: Any) -> Any:
        """Register an entity; its ``start(sim)`` runs when the sim starts.

        Entities added after the simulation started are started
        immediately, which lets arrival processes inject phones mid-run.
        """
        self._entities.append(entity)
        if self._started and hasattr(entity, "start"):
            entity.start(self)
        return entity

    @property
    def entities(self) -> List[Any]:
        """All registered entities, in registration order."""
        return list(self._entities)

    def _start_entities(self) -> None:
        if self._started:
            return
        self._started = True
        with span(self, "sim.start_entities"):
            for entity in list(self._entities):
                if hasattr(entity, "start"):
                    entity.start(self)
        self.metrics.gauge_set("sim.entities", len(self._entities))

    def run(self, until: float) -> int:
        """Start entities (once) and run events up to time ``until``;
        returns the number of events fired (matching :meth:`run_all`)."""
        self._start_entities()
        with span(self, "sim.run"):
            fired = self.scheduler.run_until(until)
        self._snapshot_health()
        return fired

    def run_all(self) -> int:
        """Start entities and drain every queued event."""
        self._start_entities()
        with span(self, "sim.run"):
            fired = self.scheduler.run_all()
        self._snapshot_health()
        return fired

    def _snapshot_health(self) -> None:
        """Post-drive gauges: totals the artefact reader wants at a glance."""
        self.metrics.gauge_set("sim.events_fired", self.scheduler.fired)
        self.metrics.gauge_set("sim.time", self.now)
        self.metrics.gauge_set("events.buffered", len(self.events))
        self.metrics.gauge_set("events.dropped", self.events.dropped)
        self.metrics.gauge_set("events.cap", self.events.max_records)

    def record_event(self, kind: str, **fields: Any) -> None:
        """Structured-event helper stamped with the current time."""
        self.events.emit(self.now, kind, **fields)
