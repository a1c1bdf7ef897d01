"""Injected worker crashes (executor-level chaos).

``FaultPlan.worker_crashes = N`` makes the first ``N`` execution
attempts of a spec die before the run starts, as if the worker process
was OOM-killed mid-batch.  The executor passes the zero-based attempt
number alongside the spec, so the crash decision is a pure function of
``(plan, attempt)`` — fully deterministic, fully picklable, and the
retried attempt (same spec, same derived seed) produces a RunSummary
bit-identical to a crash-free execution.

In a pool worker the crash is a hard ``os._exit`` so the parent
genuinely observes ``BrokenProcessPool``; inline (serial) execution
raises :class:`InjectedWorkerCrash` instead, because taking down the
caller's interpreter would be rather more chaos than requested.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.faults.plan import FaultPlan

CRASH_EXIT_CODE = 78
"""The injected crash's exit status (EX_CONFIG: unmistakably synthetic)."""

_IN_POOL_WORKER = False


class InjectedWorkerCrash(RuntimeError):
    """Raised instead of ``os._exit`` when executing inline."""


def mark_pool_worker() -> None:
    """Pool initializer: record that this process may hard-exit."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def maybe_crash(plan: Optional[FaultPlan], attempt: int) -> None:
    """Die iff the plan schedules a crash for this attempt number."""
    if plan is None or attempt >= plan.worker_crashes:
        return
    if _IN_POOL_WORKER:
        os._exit(CRASH_EXIT_CODE)
    raise InjectedWorkerCrash(
        "injected worker crash (attempt %d of %d scheduled)"
        % (attempt, plan.worker_crashes)
    )
