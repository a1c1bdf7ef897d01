"""Span instrumentation layered on the simulation clock.

A *span* brackets one phase of a run — entity start-up, an event-loop
drive, a sweep slot — and records, into the owning simulation's metrics
registry:

* ``span.<name>.count`` — invocations (counter);
* ``span.<name>.sim_s`` — simulated seconds covered (counter; this is a
  pure function of the run, so it merges bit-identically across worker
  counts);
* ``span.<name>.events`` — scheduler events fired inside the span
  (counter, equally deterministic);
* ``span.<name>`` — wall seconds (in the non-deterministic ``timers``
  section).

Each completed span also lands in the simulation's event sink, stamped
with its simulated start/end, so the JSONL export shows the phase
timeline of a run.
"""

from __future__ import annotations

import time as _time

from repro.obs.registry import MetricsRegistry


class Span:
    """Context manager measuring one named phase of a simulation."""

    __slots__ = ("sim", "name", "_t0", "_fired0", "_wall0")

    def __init__(self, sim, name: str):
        self.sim = sim
        self.name = name

    def __enter__(self) -> "Span":
        self._t0 = self.sim.now
        self._fired0 = self.sim.scheduler.fired
        self._wall0 = _time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        sim = self.sim
        sim_elapsed = sim.now - self._t0
        events_fired = sim.scheduler.fired - self._fired0
        wall = _time.perf_counter() - self._wall0
        metrics: MetricsRegistry = sim.metrics
        metrics.inc(f"span.{self.name}.count")
        metrics.inc(f"span.{self.name}.sim_s", sim_elapsed)
        metrics.inc(f"span.{self.name}.events", events_fired)
        metrics.timer_add(f"span.{self.name}", wall)
        sim.events.emit(
            sim.now,
            "span",
            name=self.name,
            sim_start=self._t0,
            sim_s=sim_elapsed,
            events=events_fired,
        )


def span(sim, name: str) -> Span:
    """Open a span over ``sim`` — ``with span(sim, "run"): ...``."""
    return Span(sim, name)
