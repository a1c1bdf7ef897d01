"""One-command reproduction report.

``generate_report`` re-runs the paper's experiments, renders every table
and figure, checks each headline number against the registered paper
targets (:mod:`repro.analysis.validation`) and emits a single markdown
document — the quickest way to audit the reproduction end to end.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.validation import check_all, targets
from repro.experiments import figures, tables
from repro.experiments.calibration import all_profiles


def generate_report(
    duration: float = 1800.0,
    fig5_slots: Optional[Sequence[int]] = (0, 4, 10),
    fig5_slot_duration: float = 3600.0,
    seed: int = 7,
) -> str:
    """Build the full markdown report.

    ``fig5_slots=None`` runs all 12 hourly slots per venue (the paper's
    full grid, a few minutes of wall clock); the default subset covers a
    morning rush, a midday slot and an evening rush per venue.
    """
    sections: List[str] = ["# City-Hunter reproduction report", ""]
    measured: Dict[str, float] = {}

    # --- tables ------------------------------------------------------------
    t1 = tables.table1(seed=seed, duration=duration)
    karma, mana = t1.summaries()
    measured["karma.h"] = karma.hit_rate
    measured["karma.h_b"] = karma.broadcast_hit_rate
    measured["mana.h"] = mana.hit_rate
    measured["mana.h_b"] = mana.broadcast_hit_rate
    sections += ["## Tables", "```", t1.render(), "```"]

    t2 = tables.table2(seed=seed, duration=duration)
    measured["basic.canteen.h_b"] = t2.summaries()[1].broadcast_hit_rate
    measured["table2.wigle_share"] = tables.wigle_share_of_broadcast_hits(
        t2.runs[1]
    )
    sections += ["```", t2.render(), "```"]

    t3 = tables.table3(seed=seed, duration=duration)
    measured["basic.passage.h_b"] = t3.summaries()[0].broadcast_hit_rate
    sections += ["```", t3.render(), "```"]

    t4 = tables.table4()
    sections += ["```", t4.render(), "```"]

    # --- figures ------------------------------------------------------------
    sections += ["## Figures"]
    f1 = figures.fig1(seed=seed, duration=duration)
    sections += ["```", f1.render(), "```"]

    f2 = figures.fig2(seed=seed, duration=duration)
    measured["fig2a.mean_hit_position"] = f2.mean_hit_position
    measured["fig2b.single_burst_share"] = f2.passage_sent_histogram.fraction(40)
    measured["fig2b.two_burst_share"] = f2.passage_sent_histogram.fraction(80)
    sections += ["```", f2.render(), "```"]

    f4 = figures.fig4()
    sections += ["```", f4.render(), "```"]

    slots = list(fig5_slots) if fig5_slots is not None else None
    for key in all_profiles():
        f5 = figures.fig5_venue(
            key, seed=seed, slots=slots, slot_duration=fig5_slot_duration
        )
        measured[f"adv.{key}.h_b"] = f5.average_h_b()
        sections += ["```", f5.render(), "", f5.render_breakdown(), "```"]

    # --- verdicts ------------------------------------------------------------
    verdicts = check_all(measured)
    ok = sum(1 for line in verdicts if line.startswith("[OK"))
    sections += [
        "## Paper-target verdicts",
        "",
        f"{ok}/{len(verdicts)} targets inside their accepted bands"
        f" ({len(targets())} registered).",
        "",
        "```",
        *verdicts,
        "```",
    ]
    return "\n".join(sections) + "\n"
