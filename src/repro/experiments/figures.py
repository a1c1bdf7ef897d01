"""Regeneration of the paper's figures (as printable series).

Absolute numbers come from the synthetic substrate; what must match the
paper is the *shape*: flat MANA efficiency despite database growth
(Fig. 1), dwell-dependent SSID try-counts (Fig. 2), hot-area heat map
(Fig. 4), venue- and time-dependent hit rates with rush-hour peaks
(Fig. 5), and WiGLE/popularity-dominated hit provenance (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.breakdown import BufferBreakdown, SourceBreakdown
from repro.analysis.metrics import SessionSummary
from repro.analysis.timeseries import (
    WindowStat,
    cumulative_broadcast_connections,
    db_size_at_steps,
    windowed_broadcast_hit_rate,
)
from repro.experiments.attackers import make_cityhunter_basic, make_mana
from repro.experiments.calibration import all_profiles, default_city, venue_profile
from repro.experiments.parallel import RunSpec, RunSummary, run_specs
from repro.experiments.runner import run_experiment, shared_wigle
from repro.util.histogram import Histogram
from repro.util.tables import render_ratio, render_table
from repro.util.units import MINUTE

DEFAULT_SEED = 7


# --------------------------------------------------------------------------
# Fig. 1 — MANA database growth vs real-time efficiency
# --------------------------------------------------------------------------


@dataclass
class Fig1Result:
    """Series behind Fig. 1(a) and 1(b)."""

    db_size: List[Tuple[float, int]]
    cumulative_connected: List[Tuple[float, int]]
    windows: List[WindowStat]

    def render(self) -> str:
        """Minute-by-minute text rendering of both panels."""
        rows = []
        for (t, size), (_, conn) in zip(self.db_size, self.cumulative_connected):
            rows.append([f"{t / MINUTE:.0f} min", size, conn])
        panel_a = render_table(
            ["time", "DB size", "broadcast clients connected"],
            rows,
            title="Fig 1(a): MANA database size vs clients connected",
        )
        rows_b = [
            [f"{w.start / MINUTE:.0f}-{w.end / MINUTE:.0f} min",
             w.broadcast_clients, w.connected, f"{100 * w.rate:.1f}%"]
            for w in self.windows
        ]
        panel_b = render_table(
            ["window", "broadcast clients", "connected", "h_b^r"],
            rows_b,
            title="Fig 1(b): real-time broadcast hit rate h_b^r (2-min windows)",
        )
        return panel_a + "\n\n" + panel_b


def fig1(seed: int = DEFAULT_SEED, duration: float = 1800.0) -> Fig1Result:
    """MANA in the canteen, 30 minutes, 2-minute windows."""
    city = default_city()
    wigle = shared_wigle()
    result = run_experiment(
        city, wigle, make_mana(), venue_profile("canteen"), duration, seed=seed
    )
    return Fig1Result(
        db_size=db_size_at_steps(result.session, duration, 2 * MINUTE),
        cumulative_connected=cumulative_broadcast_connections(
            result.session, duration, 2 * MINUTE
        ),
        windows=windowed_broadcast_hit_rate(result.session, duration, 2 * MINUTE),
    )


# --------------------------------------------------------------------------
# Fig. 2 — SSIDs sent per client
# --------------------------------------------------------------------------


@dataclass
class Fig2Result:
    """Per-client SSID counts behind Fig. 2(a) and 2(b)."""

    canteen_hit_positions: List[int]
    passage_sent_histogram: Histogram

    @property
    def mean_hit_position(self) -> float:
        """Mean SSIDs sent before a canteen client connected (0 if none)."""
        pos = self.canteen_hit_positions
        return sum(pos) / len(pos) if pos else 0.0

    def render(self) -> str:
        pos = self.canteen_hit_positions
        lines = [
            "Fig 2(a): SSIDs sent to each connected canteen client",
            f"  clients connected: {len(pos)}",
            f"  min={min(pos) if pos else 0} mean={self.mean_hit_position:.0f} "
            f"max={max(pos) if pos else 0}",
            "",
            "Fig 2(b): histogram of SSIDs tested per broadcast client "
            "(subway passage)",
            self.passage_sent_histogram.render(),
        ]
        return "\n".join(lines)


def fig2(seed: int = DEFAULT_SEED, duration: float = 1800.0) -> Fig2Result:
    """Preliminary City-Hunter: canteen hit positions, passage histogram."""
    city = default_city()
    wigle = shared_wigle()
    canteen = run_experiment(
        city,
        wigle,
        make_cityhunter_basic(wigle),
        venue_profile("canteen"),
        duration,
        seed=seed,
    )
    passage = run_experiment(
        city,
        wigle,
        make_cityhunter_basic(wigle),
        venue_profile("passage"),
        duration,
        seed=seed,
    )
    positions = [
        rec.hit_position
        for rec in canteen.session.broadcast_clients()
        if rec.connected and rec.hit_position
    ]
    hist = Histogram(width=40)
    hist.extend(
        rec.ssids_sent
        for rec in passage.session.broadcast_clients()
        if rec.ssids_sent > 0
    )
    return Fig2Result(positions, hist)


# --------------------------------------------------------------------------
# Fig. 4 — heat map
# --------------------------------------------------------------------------


@dataclass
class Fig4Result:
    """The rendered heat map plus named hot areas with local contrast.

    The paper's Fig. 4 point is that crowded venues glow *against their
    surroundings* (the airport is the red spot of Lantau Island), so
    each venue is reported with the ratio of its heat to the background
    2 km away.
    """

    ascii_map: str
    hottest_venues: List[Tuple[str, int, float]]

    def render(self) -> str:
        lines = ["Fig 4: photo heat map of the synthetic city", self.ascii_map, ""]
        lines.append("hot venue areas (cell heat, contrast vs 2 km away):")
        for name, heat, contrast in self.hottest_venues:
            c = "inf" if contrast == float("inf") else f"{contrast:.0f}x"
            lines.append(f"  {name}: {heat} ({c})")
        return "\n".join(lines)


def fig4() -> Fig4Result:
    """Render the heat map and measure each hot venue's local contrast."""
    city = default_city()
    peaks: List[Tuple[str, int, float]] = []
    for venue in city.venues:
        if venue.crowd_level < 20:
            continue
        center = venue.region.center
        heat = city.heatmap.heat_at(center)
        background = max(
            1,
            city.heatmap.heat_at(center.translated(2000.0, 0.0)),
        )
        peaks.append((venue.name, heat, heat / background))
    peaks.sort(key=lambda kv: -kv[1])
    return Fig4Result(city.heatmap.render(), peaks)


# --------------------------------------------------------------------------
# Fig. 5 / Fig. 6 — hourly deployments in the four venues
# --------------------------------------------------------------------------


@dataclass
class SlotResult:
    """One 1-hour test at one venue."""

    slot: int
    label: str
    rate_people_per_min: float
    rush: bool
    summary: SessionSummary
    source: SourceBreakdown
    buffers: BufferBreakdown

    @property
    def h(self) -> float:
        return self.summary.hit_rate

    @property
    def h_b(self) -> float:
        return self.summary.broadcast_hit_rate


@dataclass
class Fig5Result:
    """All 12 hourly tests of one venue."""

    venue_key: str
    slots: List[SlotResult]

    def average_h_b(self) -> float:
        """Venue-average broadcast hit rate across the slots."""
        if not self.slots:
            return 0.0
        return sum(s.h_b for s in self.slots) / len(self.slots)

    def render(self) -> str:
        rows = []
        for s in self.slots:
            sm = s.summary
            rows.append(
                [
                    s.label + (" *" if s.rush else ""),
                    sm.total_clients,
                    f"{sm.connected_broadcast}/{sm.broadcast_clients}",
                    f"{sm.connected_direct}/{sm.direct_clients}",
                    f"{100 * s.h:.1f}%",
                    f"{100 * s.h_b:.1f}%",
                ]
            )
        table = render_table(
            ["slot", "clients", "bcast conn", "direct conn", "h", "h_b"],
            rows,
            title=f"Fig 5: City-Hunter at the {self.venue_key} (hourly tests,"
            " * = rush slot)",
        )
        return table + f"\n  average h_b = {100 * self.average_h_b():.1f}%"

    def render_breakdown(self) -> str:
        """Fig. 6 view over the same runs."""
        rows = []
        for s in self.slots:
            rows.append(
                [
                    s.label,
                    render_ratio(s.source.from_wigle, s.source.from_direct),
                    render_ratio(s.buffers.from_popularity, s.buffers.from_freshness),
                ]
            )
        return render_table(
            ["slot", "WiGLE/direct", "PB/FB"],
            rows,
            title=f"Fig 6: hit-SSID breakdown at the {self.venue_key}",
        )


def _venue_slot_specs(
    venue_key: str,
    seed: int,
    fidelity: str,
    slot_duration: float,
    slots: Optional[Sequence[int]],
) -> List[RunSpec]:
    """The hourly-slot run specs for one venue, in slot order."""
    profile = venue_profile(venue_key)
    slot_ids = list(slots) if slots is not None else list(range(12))
    return [
        RunSpec(
            attacker="cityhunter",
            venue=venue_key,
            seed=seed + 1000 * slot,
            duration=slot_duration,
            people_per_min=profile.hourly_people_per_min.rate_for_slot(slot),
            fidelity=fidelity,
            rush=slot in profile.rush_slots,
            tag=f"fig5:{venue_key}:{slot}",
        )
        for slot in slot_ids
    ]


def _venue_result(
    venue_key: str,
    slot_ids: Sequence[int],
    outcomes: Sequence[RunSummary],
) -> Fig5Result:
    labels = venue_profile(venue_key).hourly_people_per_min.slot_labels
    out: List[SlotResult] = []
    for slot, outcome in zip(slot_ids, outcomes):
        out.append(
            SlotResult(
                slot=slot,
                label=labels[slot],
                rate_people_per_min=outcome.spec.people_per_min,
                rush=outcome.spec.rush,
                summary=outcome.summary,
                source=outcome.source,
                buffers=outcome.buffers,
            )
        )
    return Fig5Result(venue_key, out)


def fig5_venue(
    venue_key: str,
    seed: int = DEFAULT_SEED,
    fidelity: str = "burst",
    slot_duration: float = 3600.0,
    slots: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
) -> Fig5Result:
    """Run the 12 hourly tests (8am-8pm) for one venue.

    The attacker database is re-initialised for every slot, as in the
    paper.  ``slots`` restricts to a subset for quick runs.  Slots are
    independent deployments, so they fan out over the parallel executor
    (``workers``/``REPRO_WORKERS``); results are identical at any
    worker count.
    """
    slot_ids = list(slots) if slots is not None else list(range(12))
    specs = _venue_slot_specs(venue_key, seed, fidelity, slot_duration, slots)
    outcomes = run_specs(specs, workers=workers)
    return _venue_result(venue_key, slot_ids, outcomes)


def fig5_all(
    seed: int = DEFAULT_SEED,
    fidelity: str = "burst",
    slot_duration: float = 3600.0,
    slots: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
) -> Dict[str, Fig5Result]:
    """Fig. 5 for all four venues, keyed by venue key.

    All venue/slot combinations (48 runs for the full grid) are
    submitted as one batch so the executor can keep every worker busy
    across venue boundaries.
    """
    slot_ids = list(slots) if slots is not None else list(range(12))
    keys = list(all_profiles())
    specs: List[RunSpec] = []
    for key in keys:
        specs.extend(
            _venue_slot_specs(key, seed, fidelity, slot_duration, slots)
        )
    outcomes = run_specs(specs, workers=workers)
    results: Dict[str, Fig5Result] = {}
    per_venue = len(slot_ids)
    for i, key in enumerate(keys):
        chunk = outcomes[i * per_venue:(i + 1) * per_venue]
        results[key] = _venue_result(key, slot_ids, chunk)
    return results
