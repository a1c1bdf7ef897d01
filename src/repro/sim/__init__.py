"""Discrete-event simulation engine.

A minimal, fast event-queue simulator: a monotonic clock, a binary-heap
scheduler with cancellable handles, and a :class:`Simulation` facade that
owns both and drives entity callbacks.  All higher layers (radio medium,
phones, attackers, mobility) are plain callbacks scheduled here.
"""

from repro.sim.clock import Clock
from repro.sim.events import EventHandle
from repro.sim.scheduler import Scheduler
from repro.sim.simulation import Simulation

__all__ = [
    "Clock",
    "EventHandle",
    "Scheduler",
    "Simulation",
]
