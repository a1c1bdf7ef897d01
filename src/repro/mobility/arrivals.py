"""Arrival processes.

Groups of people arrive by a time-inhomogeneous Poisson process (thinning
over a piecewise or continuous rate function).  Each arrival invokes a
spawner callback with the group size — the experiment runner wires that
callback to person synthesis, mobility and phone creation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sim.simulation import Simulation
from repro.util.rng import choice_cdf, draw_index


@dataclass(frozen=True)
class HourlyRates:
    """Arrival rates (groups per minute) by hour of day, 8am-8pm.

    ``rates[0]`` covers 8-9am, ``rates[11]`` covers 7-8pm — the paper's
    test slots.  Used by the Fig. 5 experiments to pick each run's rate.
    """

    rates: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.rates) != 12:
            raise ValueError("need exactly 12 hourly rates (8am-8pm)")
        if any(r < 0 for r in self.rates):
            raise ValueError("rates must be non-negative")

    def rate_for_slot(self, slot: int) -> float:
        """Groups/minute for test slot ``slot`` (0 = 8-9am)."""
        return self.rates[slot]

    @property
    def slot_labels(self) -> Sequence[str]:
        """Human labels for the 12 slots."""
        def fmt(h: int) -> str:
            if h == 12:
                return "12pm"
            return f"{h}am" if h < 12 else f"{h - 12}pm"
        return [f"{fmt(8 + i)}-{fmt(9 + i)}" for i in range(12)]


class ArrivalProcess:
    """Poisson group arrivals driving a spawner callback.

    ``rate_per_min`` may be a float (homogeneous) or a callable of
    simulation time returning groups/minute (thinning is applied with
    ``max_rate_per_min`` as the envelope).

    Each accepted arrival draws its group size as ``1 +
    bisect_right(cdf, rng.random())`` over the cdf that
    ``Generator.choice(k, p=p)`` builds itself, so the sizes are the
    ``choice`` draws bit for bit without its per-call validation; bad
    ``group_size_probs`` (NaN, infinite, negative, all zero) fail here.
    The same rule holds across the population layer
    (:mod:`repro.population`): one ``rng.random(n)`` block equals n
    scalar ``rng.random()`` calls, while bounded-integer, Poisson and
    early-exit draws stay per item.
    """

    def __init__(
        self,
        rate_per_min,
        spawn: Callable[[int, float], None],
        group_size_probs: Sequence[float] = (0.62, 0.24, 0.10, 0.04),
        max_rate_per_min: float = 0.0,
        stop_at: float = float("inf"),
    ):
        self._rate = rate_per_min if callable(rate_per_min) else None
        self._const_rate = None if callable(rate_per_min) else float(rate_per_min)
        if self._const_rate is not None and self._const_rate < 0:
            raise ValueError("rate must be non-negative")
        self._size_cdf = choice_cdf(group_size_probs, "group_size_probs")
        self.spawn = spawn
        self.stop_at = stop_at
        if self._rate is not None and max_rate_per_min <= 0:
            raise ValueError("callable rates require max_rate_per_min")
        self._max_rate = (
            max_rate_per_min if self._rate is not None else (self._const_rate or 0.0)
        )
        self.groups_spawned = 0
        self.people_spawned = 0

    def start(self, sim: Simulation) -> None:
        """Entity hook: begin scheduling arrivals."""
        self.sim = sim
        self._rng = sim.rngs.stream("arrivals")
        if self._max_rate > 0:
            self._schedule_next()

    def _schedule_next(self) -> None:
        # Exponential gap at the envelope rate (per second).
        gap = float(self._rng.exponential(60.0 / self._max_rate))
        self.sim.at(gap, self._arrive)

    def _rate_now(self) -> float:
        if self._rate is not None:
            return float(self._rate(self.sim.now))
        return self._const_rate or 0.0

    def _arrive(self) -> None:
        if self.sim.now >= self.stop_at:
            return
        accept = True
        if self._rate is not None:
            accept = self._rng.random() < self._rate_now() / self._max_rate
        if accept:
            size = 1 + draw_index(self._size_cdf, self._rng)
            self.groups_spawned += 1
            self.people_spawned += size
            self.spawn(size, self.sim.now)
        self._schedule_next()
