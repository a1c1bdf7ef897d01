"""Shard-level chaos: deterministic crash / stall / corruption faults.

The district-sharded engine (:mod:`repro.sim.shards`) runs one process
per shard; real fleets lose members mid-campaign.  A
:class:`ShardFaultParams` block on :class:`~repro.faults.plan.FaultPlan`
schedules exactly one of each failure class against one *seed-hashed*
target shard:

* **crash** — the target shard hard-exits (``os._exit``) when it
  receives phase A of ``crash_epoch``, exactly like an OOM kill.  An
  inline shard runs in the caller's process, so the same command
  handler raises :class:`InjectedShardCrash` there instead (inline has
  no recovery path — taking down the caller would be more chaos than
  requested).
* **stall** — the target sleeps ``stall_s`` wall seconds before phase A
  of ``stall_epoch``, tripping the coordinator's per-phase deadline.
* **corrupt** — one record of the target's phase A outbox at
  ``corrupt_epoch`` is truncated or kind-mangled (or, when the outbox
  happens to be empty, a malformed record is injected), tripping the
  receiver-side :func:`~repro.sim.shards.handoff.validate_batch`.

Every decision is a pure function of ``(params, plan seed, shard id,
shard count, epoch, incarnation)`` — fully deterministic and therefore
CI-replayable.  Faults only fire at ``incarnation < crash_incarnations``
(default: the first incarnation only), so a recovered run replays
clean and must reproduce the uninterrupted digest bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.util.rng import derive_seed

SHARD_CRASH_EXIT_CODE = 86
"""Exit status of an injected shard crash (unmistakably synthetic)."""

CORRUPT_KINDS = ("truncate", "mangle")


class InjectedShardCrash(RuntimeError):
    """Raised instead of ``os._exit`` when shards run inline."""


@dataclass(frozen=True)
class ShardFaultParams:
    """Deterministic shard-level faults for one sharded run.

    ``shard`` pins the target explicitly; ``None`` (the default) hashes
    the plan seed into a shard id, so the same plan stresses different
    stripes at different shard counts without editing the plan.
    ``crash_incarnations`` is the number of successive incarnations that
    crash — values above the engine's recovery budget
    (``MAX_RECOVERIES``, 3) model a persistent fault.
    """

    crash_epoch: Optional[int] = None
    crash_incarnations: int = 1
    stall_epoch: Optional[int] = None
    stall_s: float = 0.0
    corrupt_epoch: Optional[int] = None
    corrupt_kind: str = "truncate"
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("crash_epoch", "stall_epoch", "corrupt_epoch"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError("%s must be >= 0, got %r" % (name, value))
        if self.crash_incarnations < 1:
            raise ValueError(
                "crash_incarnations must be >= 1, got %r"
                % self.crash_incarnations
            )
        if self.stall_epoch is not None and self.stall_s <= 0:
            raise ValueError("stall_epoch set but stall_s is not positive")
        if self.corrupt_kind not in CORRUPT_KINDS:
            raise ValueError(
                "corrupt_kind must be one of %s, got %r"
                % (", ".join(CORRUPT_KINDS), self.corrupt_kind)
            )
        if self.shard is not None and self.shard < 0:
            raise ValueError("shard must be >= 0, got %r" % self.shard)

    @property
    def empty(self) -> bool:
        """True when no fault is scheduled at all."""
        return (
            self.crash_epoch is None
            and self.stall_epoch is None
            and self.corrupt_epoch is None
        )


def target_shard(params: ShardFaultParams, seed: int, shards: int) -> int:
    """The shard the faults land on: explicit pin or seed hash."""
    if params.shard is not None:
        return params.shard % shards
    return derive_seed(seed, "shard-fault:target") % shards


def _armed(
    params: ShardFaultParams,
    seed: int,
    shard_id: int,
    shards: int,
    incarnation: int,
    fire_incarnations: int,
) -> bool:
    return (
        incarnation < fire_incarnations
        and shard_id == target_shard(params, seed, shards)
    )


def crash_now(
    params: ShardFaultParams,
    seed: int,
    shard_id: int,
    shards: int,
    epoch: int,
    incarnation: int,
) -> bool:
    """Whether this shard should die at this phase A receipt."""
    return (
        params.crash_epoch is not None
        and epoch == params.crash_epoch
        and _armed(
            params, seed, shard_id, shards, incarnation,
            params.crash_incarnations,
        )
    )


def stall_seconds(
    params: ShardFaultParams,
    seed: int,
    shard_id: int,
    shards: int,
    epoch: int,
    incarnation: int,
) -> float:
    """Wall seconds this shard should stall before this phase A (0 = no)."""
    if params.stall_epoch is None or epoch != params.stall_epoch:
        return 0.0
    if not _armed(params, seed, shard_id, shards, incarnation, 1):
        return 0.0
    return float(params.stall_s)


def corrupt_now(
    params: ShardFaultParams,
    seed: int,
    shard_id: int,
    shards: int,
    epoch: int,
    incarnation: int,
) -> bool:
    """Whether this shard's phase A outbox should be corrupted."""
    return (
        params.corrupt_epoch is not None
        and epoch == params.corrupt_epoch
        and _armed(params, seed, shard_id, shards, incarnation, 1)
    )


def corrupt_outbox(params: ShardFaultParams, outbox: dict) -> bool:
    """Mangle one outgoing record in place (deterministically).

    ``truncate`` drops the tail fields of the first record of the
    lowest-numbered destination; ``mangle`` rewrites its kind tag.  An
    empty outbox gets a malformed record *injected* instead, so the
    fault always produces something for the receiver to reject.
    Returns True (the outbox is always left invalid).
    """
    for dest in sorted(outbox):
        records = outbox[dest]
        if records:
            record = records[0]
            if params.corrupt_kind == "truncate":
                records[0] = record[:3]
            else:
                records[0] = ("x",) + record[1:]
            return True
    outbox.setdefault(0, []).append(("x", 0.0, 0, 0, 0))
    return True
