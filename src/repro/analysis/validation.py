"""Paper-target validation.

A declarative registry of the paper's quantitative claims and helpers
to check measured values against them.  Used by the EXPERIMENTS
workflow and by tests; each target records the paper's value, the band
the reproduction accepts, and where the claim comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class PaperTarget:
    """One quantitative claim of the paper."""

    key: str
    description: str
    paper_value: float
    low: float
    high: float
    source: str

    def check(self, measured: float) -> bool:
        """Whether a measured value lands in the accepted band."""
        return self.low <= measured <= self.high

    def report(self, measured: float) -> str:
        """One human-readable verdict line."""
        verdict = "OK " if self.check(measured) else "OUT"
        return (
            f"[{verdict}] {self.key}: measured {measured:.3f} "
            f"(paper {self.paper_value:.3f}, band {self.low:.3f}-{self.high:.3f})"
        )


_TARGETS: List[PaperTarget] = [
    PaperTarget("karma.h", "KARMA overall hit rate, canteen",
                0.039, 0.02, 0.07, "Table I"),
    PaperTarget("karma.h_b", "KARMA broadcast hit rate",
                0.0, 0.0, 0.0, "Table I"),
    PaperTarget("mana.h", "MANA overall hit rate, canteen",
                0.066, 0.03, 0.11, "Table I"),
    PaperTarget("mana.h_b", "MANA broadcast hit rate, canteen",
                0.03, 0.005, 0.06, "Table I"),
    PaperTarget("basic.canteen.h_b", "preliminary City-Hunter h_b, canteen",
                0.159, 0.12, 0.25, "Table II"),
    PaperTarget("basic.passage.h_b", "preliminary City-Hunter h_b, passage",
                0.041, 0.015, 0.08, "Table III"),
    PaperTarget("adv.passage.h_b", "City-Hunter average h_b, passage",
                0.12, 0.08, 0.17, "Fig. 5a"),
    PaperTarget("adv.canteen.h_b", "City-Hunter average h_b, canteen",
                0.1786, 0.13, 0.24, "Fig. 5b"),
    PaperTarget("adv.shopping_center.h_b", "City-Hunter average h_b, mall",
                0.14, 0.09, 0.20, "Fig. 5c"),
    PaperTarget("adv.railway_station.h_b", "City-Hunter average h_b, station",
                0.166, 0.10, 0.22, "Fig. 5d"),
    PaperTarget("fig2a.mean_hit_position",
                "mean SSIDs sent to a canteen client before it connects",
                130.0, 50.0, 200.0, "Fig. 2a"),
    PaperTarget("fig2b.single_burst_share",
                "share of passage clients receiving exactly 40 SSIDs",
                0.70, 0.55, 0.90, "Fig. 2b"),
    PaperTarget("fig2b.two_burst_share",
                "share of passage clients receiving exactly 80 SSIDs",
                0.22, 0.08, 0.35, "Fig. 2b"),
    PaperTarget("table2.wigle_share",
                "share of basic City-Hunter broadcast hits from WiGLE",
                0.74, 0.60, 0.97, "Table II text"),
]


def targets() -> Dict[str, PaperTarget]:
    """All registered targets keyed by their identifier."""
    return {t.key: t for t in _TARGETS}


def check_all(measured: Dict[str, float]) -> List[str]:
    """Verdict lines for every provided measurement (unknown keys raise)."""
    registry = targets()
    lines = []
    for key, value in measured.items():
        if key not in registry:
            raise KeyError(f"no paper target registered for {key!r}")
        lines.append(registry[key].report(value))
    return lines


def all_pass(measured: Dict[str, float]) -> bool:
    """Whether every provided measurement is inside its band."""
    registry = targets()
    return all(registry[k].check(v) for k, v in measured.items())
