"""Declared serving SLOs: p99 stage budgets and a shed-fraction budget.

The serving plane measures where each probe's microseconds go
(:mod:`repro.obs.reqtrace` spans, ``serve.*_us`` stage histograms);
this module *declares* how many microseconds are acceptable and turns
a serving run's metrics artefact into a pass/fail verdict.

A :class:`ServeSlo` carries one p99 budget per pipeline stage
(microseconds) plus a shed-fraction budget.  :func:`evaluate_slo`
reads a ``repro.metrics/v1`` document (``repro serve run``'s
``metrics.json``): stage p99s are estimated from the merged
``serve.<stage>_us`` histograms via
:func:`~repro.obs.registry.estimate_percentile`, the shed fraction
from the ``serve.shed_total`` / ``serve.events_total`` counters.

The default budgets are deliberately generous (50 ms select/apply p99,
5 s queue wait, 5 % shed): loose enough that an unloaded CI runner
passes, tight enough to catch a consumer that falls seconds behind its
queue or a pathological ranking walk.  ``repro obs slo --once`` exits
non-zero on breach.

Stage histograms are wall-clock (quarantined from the deterministic
metric surface, like ``timers``), so the SLO verdict is about the
*machine*, never about simulation correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.obs.registry import METRICS_SCHEMA, estimate_percentile

SLO_SCHEMA = "repro.slo_report/v1"

#: Pipeline stages with a p99 budget, in path order.  Keys match the
#: ``serve.<stage>_us`` histogram names.
DEFAULT_P99_BUDGETS_US: Dict[str, float] = {
    "queue_wait": 5_000_000.0,
    "select_latency": 50_000.0,
    "apply": 50_000.0,
}

DEFAULT_SHED_BUDGET = 0.05


@dataclass(frozen=True)
class ServeSlo:
    """One declared serving SLO: per-stage p99 budgets + shed budget."""

    p99_budgets_us: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_P99_BUDGETS_US)
    )
    shed_fraction_budget: float = DEFAULT_SHED_BUDGET


def default_slo(
    overrides: Mapping[str, float] = (),
    shed_budget: Optional[float] = None,
) -> ServeSlo:
    """The default SLO with optional per-stage budget overrides."""
    budgets = dict(DEFAULT_P99_BUDGETS_US)
    for stage, value in dict(overrides).items():
        if stage not in budgets:
            raise ValueError(
                "unknown SLO stage %r (stages: %s)"
                % (stage, ", ".join(sorted(budgets)))
            )
        budgets[stage] = float(value)
    return ServeSlo(
        p99_budgets_us=budgets,
        shed_fraction_budget=(
            DEFAULT_SHED_BUDGET if shed_budget is None else float(shed_budget)
        ),
    )


def _check(name: str, value: float, budget: float) -> dict:
    breached = not (value <= budget) or math.isnan(value)
    return {
        "name": name,
        "value": float(value),
        "budget": float(budget),
        "breached": bool(breached),
    }


def _counter_sum(counters: Mapping[str, float], name: str) -> float:
    from repro.obs.registry import parse_key

    return sum(v for k, v in counters.items() if parse_key(k)[0] == name)


def _checks_from_metrics(slo: ServeSlo, doc: dict) -> List[dict]:
    merged = doc.get("merged", {})
    hists = merged.get("histograms", {})
    counters = merged.get("counters", {})
    events = _counter_sum(counters, "serve.events_total")
    stage_hists = {
        stage: hists.get("serve.%s_us" % stage)
        for stage in slo.p99_budgets_us
    }
    if not events and not any(stage_hists.values()):
        raise ValueError(
            "document has no serve.* metrics - not a serving run"
        )
    checks: List[dict] = []
    for stage in sorted(slo.p99_budgets_us):
        hist = stage_hists[stage]
        if hist is None:
            continue  # older artefact without this stage histogram
        p99 = estimate_percentile(hist, 99)
        if p99 is None:
            continue  # declared but empty (e.g. probe-free stream)
        checks.append(
            _check("p99:%s" % stage, p99, slo.p99_budgets_us[stage])
        )
    if events:
        shed = _counter_sum(counters, "serve.shed_total")
        checks.append(
            _check("shed_fraction", shed / events, slo.shed_fraction_budget)
        )
    return checks


def evaluate_slo(slo: ServeSlo, doc: dict) -> dict:
    """Evaluate one SLO against a serving run's metrics artefact.

    Raises ``ValueError`` for documents of any other schema or with no
    serving data at all — an SLO verdict over nothing would be
    vacuously green, which is worse than an error.
    """
    schema = doc.get("schema")
    if schema != METRICS_SCHEMA:
        raise ValueError(
            "cannot evaluate an SLO against schema %r (want %r)"
            % (schema, METRICS_SCHEMA)
        )
    checks = _checks_from_metrics(slo, doc)
    if not checks:
        raise ValueError("document yielded no SLO checks")
    breaches = [c["name"] for c in checks if c["breached"]]
    return {
        "schema": SLO_SCHEMA,
        "source_schema": schema,
        "checks": checks,
        "breaches": breaches,
        "ok": not breaches,
    }


def render_slo_report(report: dict) -> str:
    """Human-readable verdict table for one :func:`evaluate_slo` report."""
    lines = [f"{'check':<34} {'value':>14} {'budget':>14}  verdict"]
    for check in report["checks"]:
        verdict = "BREACH" if check["breached"] else "ok"
        # %g keeps small fractions honest: a 0.05 shed budget must not
        # render as "0.1".
        lines.append(
            f"{check['name']:<34} {check['value']:>14.5g} "
            f"{check['budget']:>14.5g}  {verdict}"
        )
    if report["ok"]:
        lines.append("slo: OK (%d check(s))" % len(report["checks"]))
    else:
        lines.append(
            "slo: BREACH (%s)" % ", ".join(report["breaches"])
        )
    return "\n".join(lines)
