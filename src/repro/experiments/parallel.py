"""Parallel experiment execution with deterministic seeding and
fault-tolerant, resumable batches.

Every paper artefact is a batch of *independent* deployments — Fig. 5/6
alone is 48 hourly runs — so the executor here fans a list of picklable
:class:`RunSpec` descriptions out over a ``ProcessPoolExecutor`` and
returns ordered results.  Three properties make the fan-out exact
rather than merely fast:

* **Specs, not closures.**  A spec names its attacker (resolved through
  the :mod:`~repro.experiments.attackers` registry inside the worker)
  and carries only picklable configuration, so the same spec runs
  identically in-process or in a worker.
* **Per-worker caches.**  ``default_city`` / ``shared_wigle`` are
  process-local ``lru_cache``\\ s; each worker builds (or inherits via
  fork) its own immutable city and WiGLE registry.  No mutable state is
  shared between runs, so execution order cannot matter.
* **Derived seeds.**  Batches that need replicate seeds derive them via
  ``derive_seed(master_seed, "run:i")`` (:func:`derive_run_seeds`),
  which is platform-stable SHA-256 fan-out — parallel and serial
  execution produce bit-identical results.

Resilience (the properties a 48-run batch on real hardware needs):

* **Worker death is retried, not fatal.**  A crashed worker
  (``BrokenProcessPool`` — OOM kill, segfault, injected chaos) rebuilds
  the pool and resubmits the unfinished specs with capped exponential
  backoff (the ``retries`` / ``retry_backoff`` arguments).  The retry
  reuses the *same* spec and therefore the same derived seed, so a
  retried run is bit-identical to one that never crashed.
* **Failures become placeholders.**  A spec that keeps failing (or
  raises, or exceeds the per-spec ``REPRO_SPEC_TIMEOUT_S``) yields a
  :class:`FailedRun` in its slot instead of aborting the batch; every
  surviving run is still returned, bit-identical to a fault-free
  execution of those specs.
* **Completed runs are checkpointed.**  With checkpointing enabled
  (``REPRO_CHECKPOINT`` or ``checkpoint_name=``), every finished run is
  appended to a JSONL artefact keyed by :func:`spec_digest`; a
  re-invocation of :func:`run_specs` restores those runs without
  re-executing them and only runs what is missing.

Worker count comes from the ``REPRO_WORKERS`` environment variable
(default ``os.cpu_count()``); ``REPRO_WORKERS=1`` is an exact serial
fallback that never touches the process pool.  Each executor invocation
also writes a ``metrics.json`` artefact (each worker's
:class:`~repro.obs.registry.MetricsRegistry` snapshot, their merge, and
the batch timings: per-run wall time, worker count, speedup vs the
serial estimate) with its ``metrics.prom`` twin, in the directory
resolved by :func:`repro.obs.artifacts.artifact_dir`
(``REPRO_ARTIFACT_DIR``, or ``benchmarks/out``).

Merged metrics are *worker-count invariant*: workers return snapshots in
spec order and the parent folds them in that order, so every section
except wall-clock ``timers`` is bit-identical between ``REPRO_WORKERS=1``
and any pooled width.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.breakdown import (
    BufferBreakdown,
    SourceBreakdown,
    breakdown_hits,
)
from repro.analysis.metrics import SessionSummary, summarize
from repro.core.config import CityHunterConfig
from repro.experiments.attackers import ATTACKER_NAMES, make_attacker
from repro.experiments.calibration import default_city, venue_profile
from repro.experiments.runner import (
    run_experiment,
    session_progress,
    shared_wigle,
)
from repro.experiments.scenarios import ScenarioConfig, build_scenario
from repro.faults.chaos import InjectedWorkerCrash, mark_pool_worker, maybe_crash
from repro.faults.plan import FaultPlan
from repro.obs.artifacts import artifact_path
from repro.obs.profiler import merge_profiles
from repro.obs.records import read_jsonl, write_json, write_jsonl
from repro.obs.registry import (
    METRICS_SCHEMA,
    MetricsRegistry,
    merge_snapshots,
)
from repro.obs.telemetry import (
    maybe_heartbeat,
    resolve_heartbeat_interval,
    set_current_spec,
)
from repro.population.groups import GroupModel
from repro.population.pnl import PnlModel
from repro.sim.shards.engine import run_sharded
from repro.sim.shards.scenario import ShardScenario
from repro.util.rng import derive_seed
from repro.util.settings import (
    OFF_WORDS,
    ON_WORDS,
    parse_float_setting,
    parse_int_setting,
    resolve_int_env,
)

WORKERS_ENV = "REPRO_WORKERS"
TIMEOUT_ENV = "REPRO_SPEC_TIMEOUT_S"
CHECKPOINT_ENV = "REPRO_CHECKPOINT"

DEFAULT_RETRIES = 2
"""Extra attempts a spec gets after its worker dies (attempts = 1 + N)."""

DEFAULT_BACKOFF_S = 0.5
"""Base of the exponential backoff between pool rebuilds."""

BACKOFF_CAP_S = 30.0
"""Ceiling on any single backoff sleep."""

CHECKPOINT_SCHEMA = "repro.checkpoint/v1"


@dataclass(frozen=True)
class RunSpec:
    """One independent deployment, described in picklable terms.

    Two routes exist.  The *profile* route (``venue`` set) mirrors
    :func:`~repro.experiments.runner.run_experiment` over a calibrated
    venue profile; the *scenario* route (``scenario`` set) runs an
    explicit :class:`ScenarioConfig`, which is what the sweep grid uses.
    Exactly one of the two must be provided.
    """

    attacker: str
    venue: Optional[str] = None
    seed: int = 0
    duration: float = 1800.0
    people_per_min: Optional[float] = None
    fidelity: str = "frame"
    rush: bool = False
    group_probs: Optional[Tuple[float, ...]] = None
    pnl_model: Optional[PnlModel] = None
    group_model: Optional[GroupModel] = None
    attacker_config: Optional[CityHunterConfig] = None
    use_heat: bool = True
    scenario: Optional[ScenarioConfig] = None
    run_extra: float = 30.0
    """Simulated seconds past ``duration`` so in-flight handshakes
    finish (matches the serial runner)."""

    city_seed: int = 42
    tag: str = ""
    """Free-form label echoed into results and the metrics artefact."""

    faults: Optional[FaultPlan] = None
    """Deterministic fault plan for this run (None injects nothing)."""

    shard_scenario: Optional[ShardScenario] = None
    """Third route: a district-sharded city run
    (:mod:`repro.sim.shards`).  The shard count stays an execution
    parameter (``REPRO_SHARDS``), not a spec field, so one spec digest
    covers every shard count — which is what lets the golden suite pin
    shard-count invariance."""

    def __post_init__(self) -> None:
        if self.attacker not in ATTACKER_NAMES:
            raise ValueError(
                "unknown attacker %r (have: %s)"
                % (self.attacker, ", ".join(ATTACKER_NAMES))
            )
        routes = sum(
            route is not None
            for route in (self.venue, self.scenario, self.shard_scenario)
        )
        if routes != 1:
            raise ValueError(
                "exactly one of venue/scenario must be set"
                " (or shard_scenario for sharded city runs)"
            )


@dataclass(frozen=True)
class RunSummary:
    """The picklable outcome of one run.

    Workers cannot ship the full :class:`ExperimentResult` home (the
    session graph references the live simulation), so the breakdown
    analyses are computed worker-side and only plain dataclasses cross
    the process boundary.
    """

    spec: RunSpec
    summary: SessionSummary
    source: SourceBreakdown
    buffers: BufferBreakdown
    people_spawned: int
    duration: float
    wall_time: float
    metrics: Optional[dict] = None
    """This run's :meth:`MetricsRegistry.to_dict` snapshot (None only
    for summaries built before the observability layer existed)."""

    events: Tuple[dict, ...] = field(default=())
    """The run's retained structured events (capped ring buffer)."""

    cache_wall_time: float = 0.0
    """Wall seconds this process spent building (or fetching) the
    city/WiGLE caches before the run — kept out of ``wall_time`` so a
    cold-cache worker does not report an inflated run wall."""

    profile: Optional[dict] = None
    """Per-handler profiler snapshot (``repro.profile/v1``) when
    ``REPRO_PROFILE`` was on for the run, else None."""

    @property
    def failed(self) -> bool:
        """False: this slot holds a completed run (cf. FailedRun)."""
        return False

    @property
    def h(self) -> float:
        """Overall hit rate."""
        return self.summary.hit_rate

    @property
    def h_b(self) -> float:
        """Broadcast hit rate."""
        return self.summary.broadcast_hit_rate


@dataclass(frozen=True)
class FailedRun:
    """Placeholder filling the result slot of a spec that never finished.

    Carrying the spec, the failure kind (``worker-crash`` / ``timeout``
    / ``exception``) and the attempt count means a batch survives
    partial failure: callers filter on ``failed`` and still get every
    surviving :class:`RunSummary` bit-identical to a fault-free batch.
    """

    spec: RunSpec
    error: str
    kind: str
    attempts: int

    @property
    def failed(self) -> bool:
        """True: this slot's spec produced no RunSummary."""
        return True


RunResult = Union[RunSummary, FailedRun]


def derive_run_seeds(master_seed: int, count: int) -> List[int]:
    """Per-run seeds fanned out from one master seed.

    Uses the same SHA-256 derivation as the in-simulation stream
    registry (``derive_seed(master, "run:i")``), so the seeds are
    distinct, stable across platforms and Python versions, and
    independent of worker count or execution order.
    """
    return [derive_seed(master_seed, f"run:{i}") for i in range(count)]


def replicates(
    spec: RunSpec, count: int, master_seed: Optional[int] = None
) -> List[RunSpec]:
    """``count`` copies of ``spec`` with derived, distinct seeds.

    Cheap replicated runs are what put error bars on h_b; the master
    seed defaults to the spec's own seed.
    """
    master = spec.seed if master_seed is None else master_seed
    out = []
    for i, child_seed in enumerate(derive_run_seeds(master, count)):
        tag = spec.tag or spec.attacker
        if spec.scenario is not None:
            child = replace(
                spec,
                scenario=replace(spec.scenario, seed=child_seed),
                seed=child_seed,
                tag=f"{tag}:rep{i}",
            )
        else:
            child = replace(spec, seed=child_seed, tag=f"{tag}:rep{i}")
        out.append(child)
    return out


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_WORKERS``, else
    ``os.cpu_count()``."""
    if workers is not None:
        return parse_int_setting("workers", workers, 1)
    return resolve_int_env(WORKERS_ENV, os.cpu_count() or 1, 1)


def resolve_retries(retries: Optional[int] = None) -> int:
    """Retry budget per spec on worker death: argument, else 2."""
    if retries is None:
        return DEFAULT_RETRIES
    return parse_int_setting("retries", retries, 0)


def resolve_backoff(backoff: Optional[float] = None) -> float:
    """Backoff base seconds between retries: argument, else 0.5."""
    if backoff is None:
        return DEFAULT_BACKOFF_S
    if backoff < 0:
        raise ValueError("backoff must be >= 0, got %r" % backoff)
    return backoff


def resolve_spec_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """Per-spec wall timeout (``REPRO_SPEC_TIMEOUT_S``; 0/unset = off).

    Only enforced on pooled execution: the serial path cannot preempt a
    run in its own process.
    """
    name = "spec timeout"
    if timeout is None:
        name = TIMEOUT_ENV
        timeout = parse_float_setting(name, os.environ.get(name, "").strip() or "0")
    if timeout < 0:
        raise ValueError("%s must be >= 0, got %r" % (name, timeout))
    return timeout if timeout > 0 else None


def resolve_checkpoint_name(name: Optional[str] = None) -> Optional[str]:
    """Checkpoint artefact name: argument, else ``REPRO_CHECKPOINT``.

    The environment variable accepts ``0/false/off`` (disabled, the
    default), ``1/true/on`` (enabled under the default ``checkpoint``
    name) or any other string, which is used as the artefact name
    itself.
    """
    if name is not None:
        return name or None
    env = os.environ.get(CHECKPOINT_ENV, "").strip()
    if env.lower() in OFF_WORDS:
        return None
    if env.lower() in ON_WORDS:
        return "checkpoint"
    return env


def _backoff_sleep(round_index: int, base: float) -> None:
    if base > 0:
        time.sleep(min(BACKOFF_CAP_S, base * (2.0 ** round_index)))


# -- spec digests and checkpointing ---------------------------------------


def spec_digest(spec: RunSpec) -> str:
    """Stable content digest of one spec.

    Every field of a spec (and of its nested configs) is a frozen
    dataclass of plain values, so ``repr`` is a canonical, platform
    stable serialisation; SHA-256 over it keys the checkpoint.  Any
    change to any field — seed, venue, fault plan, attacker config —
    changes the digest and forces a re-run.
    """
    return hashlib.sha256(repr(spec).encode("utf-8")).hexdigest()


def _summary_to_doc(result: RunSummary) -> dict:
    """JSON-serialisable form of a RunSummary, minus its spec.

    The spec is represented by the checkpoint key (its digest), so
    restoration reattaches the caller's own spec object and the
    round-trip is exact: every summary field survives JSON untouched
    (ints stay ints, floats round-trip by repr).
    """
    return {
        "summary": dataclasses.asdict(result.summary),
        "source": dataclasses.asdict(result.source),
        "buffers": dataclasses.asdict(result.buffers),
        "people_spawned": result.people_spawned,
        "duration": result.duration,
        "wall_time": result.wall_time,
        "cache_wall_time": result.cache_wall_time,
        "metrics": result.metrics,
        "events": list(result.events),
        "profile": result.profile,
    }


def _summary_from_doc(spec: RunSpec, doc: dict) -> RunSummary:
    """Inverse of :meth:`_summary_to_doc` for a known spec."""
    return RunSummary(
        spec=spec,
        summary=SessionSummary(**doc["summary"]),
        source=SourceBreakdown(**doc["source"]),
        buffers=BufferBreakdown(**doc["buffers"]),
        people_spawned=doc["people_spawned"],
        duration=doc["duration"],
        wall_time=doc["wall_time"],
        metrics=doc.get("metrics"),
        events=tuple(doc.get("events", ())),
        cache_wall_time=doc.get("cache_wall_time", 0.0),
        profile=doc.get("profile"),
    )


class RunCheckpoint:
    """Incremental JSONL checkpoint of completed runs, keyed by digest.

    One line per completed run, appended the moment the run finishes —
    so a batch killed mid-flight (power, OOM, ctrl-C) resumes from its
    last completed spec.  Loading tolerates a truncated final line
    (the signature of dying mid-append) by skipping it.
    """

    def __init__(self, path: pathlib.Path):
        self.path = pathlib.Path(path)
        self._done: Dict[str, dict] = {}
        self.restored = 0
        """Runs served from this checkpoint by the current invocation."""

        for record in read_jsonl(self.path, "schema", "digest", "result"):
            if record["schema"] == CHECKPOINT_SCHEMA:
                self._done[record["digest"]] = record["result"]

    @classmethod
    def open(cls, name: str) -> "RunCheckpoint":
        """The checkpoint artefact ``<name>.jsonl`` in the artifact dir."""
        return cls(artifact_path(name, suffix=".jsonl"))

    def __len__(self) -> int:
        return len(self._done)

    def get(self, digest: str, spec: RunSpec) -> Optional[RunSummary]:
        """Restore the completed run for ``digest`` (None if absent)."""
        doc = self._done.get(digest)
        if doc is None:
            return None
        self.restored += 1
        return _summary_from_doc(spec, doc)

    def record(self, digest: str, result: RunSummary) -> None:
        """Append one completed run (idempotent per digest)."""
        if digest in self._done:
            return
        doc = _summary_to_doc(result)
        self._done[digest] = doc
        self.path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "schema": CHECKPOINT_SCHEMA,
            "digest": digest,
            "tag": result.spec.tag,
            "result": doc,
        }
        write_jsonl(self.path, (record,))


# -- single-run execution --------------------------------------------------


def _execute_shard_spec(spec: RunSpec) -> RunSummary:
    """The sharded-city route: no venue city, no frame-level medium —
    the spec's :class:`~repro.sim.shards.scenario.ShardScenario` runs
    through :func:`~repro.sim.shards.engine.run_sharded` at whatever
    shard count / mode ``REPRO_SHARDS`` / ``REPRO_SHARD_MODE`` resolve
    to, and folds back into the same RunSummary shape."""
    scenario = spec.shard_scenario
    set_current_spec(
        spec.tag or "%s/%s:%d" % (spec.attacker, _spec_venue(spec), spec.seed)
    )
    start = time.perf_counter()
    result = run_sharded(scenario, collect_states=False, faults=spec.faults)
    wall = time.perf_counter() - start
    set_current_spec(None)
    registry = MetricsRegistry.from_dict(result.metrics)
    registry.inc("run.count")
    registry.inc("run.people_spawned", scenario.stations)
    registry.inc("run.sim_duration_s", scenario.duration)
    registry.timer_add("run.wall", wall)
    return RunSummary(
        spec=spec,
        summary=result.session_summary(),
        source=result.source_breakdown(),
        buffers=result.buffer_breakdown(),
        people_spawned=scenario.stations,
        duration=scenario.duration,
        wall_time=wall,
        metrics=registry.to_dict(),
        events=(),
    )


def execute_spec(spec: RunSpec) -> RunSummary:
    """Run one spec in the current process and summarise it.

    This is the worker entry point, but it is equally the serial path:
    ``run_specs`` with one worker calls it inline, which is what makes
    the ``REPRO_WORKERS=1`` fallback *exact* rather than approximate.
    """
    if spec.shard_scenario is not None:
        return _execute_shard_spec(spec)
    cache_start = time.perf_counter()
    city = default_city(spec.city_seed)
    wigle = shared_wigle(spec.city_seed)
    cache_wall = time.perf_counter() - cache_start
    factory = make_attacker(
        spec.attacker, city, wigle, config=spec.attacker_config,
        use_heat=spec.use_heat, faults=spec.faults,
    )
    set_current_spec(
        spec.tag or "%s/%s:%d" % (spec.attacker, _spec_venue(spec), spec.seed)
    )
    start = time.perf_counter()
    if spec.scenario is not None:
        scenario = spec.scenario
        if spec.faults is not None and scenario.faults is None:
            scenario = replace(scenario, faults=spec.faults)
        build = build_scenario(city, wigle, scenario, factory)
        with maybe_heartbeat(
            None, scenario.duration, session_progress(build)
        ):
            build.sim.run(scenario.duration + spec.run_extra)
        sim = build.sim
        session = build.attacker.session
        summary = summarize(session)
        people = build.arrivals.people_spawned
        duration = scenario.duration
    else:
        result = run_experiment(
            city,
            wigle,
            factory,
            venue_profile(spec.venue),
            spec.duration,
            people_per_min=spec.people_per_min,
            seed=spec.seed,
            fidelity=spec.fidelity,
            rush=spec.rush,
            group_probs=spec.group_probs,
            pnl_model=spec.pnl_model,
            group_model=spec.group_model,
            faults=spec.faults,
        )
        sim = result.attacker.sim
        session = result.session
        summary = result.summary
        people = result.people_spawned
        duration = result.duration
    wall = time.perf_counter() - start
    set_current_spec(None)
    sim.metrics.inc("run.count")
    sim.metrics.inc("run.people_spawned", people)
    sim.metrics.inc("run.sim_duration_s", duration)
    sim.metrics.timer_add("run.wall", wall)
    sim.metrics.timer_add("run.cache_build", cache_wall)
    source, buffers = breakdown_hits(session)
    return RunSummary(
        spec=spec,
        summary=summary,
        source=source,
        buffers=buffers,
        people_spawned=people,
        duration=duration,
        wall_time=wall,
        metrics=sim.metrics.to_dict(),
        events=tuple(sim.events),
        cache_wall_time=cache_wall,
        profile=(
            sim.profiler.to_dict() if sim.profiler is not None else None
        ),
    )


def _pool_entry(task: Tuple[RunSpec, int]) -> RunSummary:
    """Worker-side wrapper: chaos hook first, then the real run."""
    spec, attempt = task
    maybe_crash(spec.faults, attempt)
    return execute_spec(spec)


# -- batch execution -------------------------------------------------------


def run_specs(
    specs: Sequence[RunSpec],
    workers: Optional[int] = None,
    metrics_name: str = "metrics",
    checkpoint_name: Optional[str] = None,
    retries: Optional[int] = None,
    spec_timeout: Optional[float] = None,
    retry_backoff: Optional[float] = None,
) -> List[RunResult]:
    """Execute every spec and return results in spec order.

    ``workers`` falls back to ``REPRO_WORKERS`` / ``os.cpu_count()``;
    one worker (or one spec) runs inline with no pool.  Results are
    bit-identical across worker counts because each run derives all of
    its randomness from its own spec and touches only immutable shared
    state.  The metrics artefact, with the batch timings embedded, is
    written after every non-empty invocation.

    Worker death retries the unfinished specs (same spec, same derived
    seed — bit-identical on success) up to ``retries`` extra attempts
    with capped exponential backoff; a spec that stays dead, raises, or
    exceeds ``spec_timeout`` yields a :class:`FailedRun` placeholder in
    its slot instead of aborting the batch.  With a checkpoint enabled
    (``checkpoint_name`` / ``REPRO_CHECKPOINT``), completed runs are
    restored on re-invocation instead of re-executed.
    """
    specs = list(specs)
    if not specs:
        return []  # nothing ran: leave no empty metrics artefact
    requested = resolve_workers(workers)
    retries = resolve_retries(retries)
    backoff = resolve_backoff(retry_backoff)
    timeout = resolve_spec_timeout(spec_timeout)
    ckpt_name = resolve_checkpoint_name(checkpoint_name)
    # Each spec resolves REPRO_HEARTBEAT again when it runs, where an
    # error becomes that spec's FailedRun: a bad value should fail the
    # batch once, here.
    resolve_heartbeat_interval()

    results: List[Optional[RunResult]] = [None] * len(specs)
    checkpoint: Optional[RunCheckpoint] = None
    if ckpt_name:
        checkpoint = RunCheckpoint.open(ckpt_name)
        for i, spec in enumerate(specs):
            results[i] = checkpoint.get(spec_digest(spec), spec)

    todo = [i for i, r in enumerate(results) if r is None]
    used = max(1, min(requested, len(todo))) if todo else 1

    cache_start = time.perf_counter()
    if todo:
        _prewarm([specs[i] for i in todo])
    cache_wall = time.perf_counter() - cache_start

    def _complete(index: int, result: RunResult) -> None:
        results[index] = result
        if checkpoint is not None and isinstance(result, RunSummary):
            checkpoint.record(spec_digest(result.spec), result)

    start = time.perf_counter()
    if todo:
        if used == 1:
            _run_serial(specs, todo, retries, backoff, _complete)
        else:
            _run_pooled(
                specs, todo, used, retries, backoff, timeout, _complete
            )
    total_wall = time.perf_counter() - start

    final: List[RunResult] = [r for r in results if r is not None]
    assert len(final) == len(specs)
    batch_timings = timings_doc(
        final, workers=used, total_wall=total_wall, cache_build=cache_wall
    )
    write_metrics(
        final, workers=used, name=metrics_name, timings=batch_timings
    )
    write_batch_profile(final)
    return final


def _run_serial(
    specs: Sequence[RunSpec],
    todo: Sequence[int],
    retries: int,
    backoff: float,
    complete,
) -> None:
    """Inline execution with the same retry/placeholder contract.

    Injected worker crashes surface as :class:`InjectedWorkerCrash`
    here (hard-exiting would take the caller down too); any other
    exception is deterministic for a fixed spec, so it becomes a
    :class:`FailedRun` immediately rather than being retried.
    """
    for i in todo:
        spec = specs[i]
        attempt = 0
        while True:
            try:
                maybe_crash(spec.faults, attempt)
                complete(i, execute_spec(spec))
                break
            except InjectedWorkerCrash as exc:
                attempt += 1
                if attempt > retries:
                    complete(
                        i,
                        FailedRun(spec, str(exc), "worker-crash", attempt),
                    )
                    break
                _backoff_sleep(attempt - 1, backoff)
            except Exception as exc:  # noqa: BLE001 - placeholder contract
                complete(
                    i,
                    FailedRun(
                        spec,
                        "%s: %s" % (type(exc).__name__, exc),
                        "exception",
                        attempt + 1,
                    ),
                )
                break


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose worker blew its per-spec timeout.

    ``ProcessPoolExecutor`` has no supported way to abandon a running
    task, so the one honest option is to terminate the worker processes
    (the executor then reports the pool broken and the unfinished,
    innocent specs are resubmitted to a fresh pool).
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        proc.terminate()


def _run_pooled(
    specs: Sequence[RunSpec],
    todo: Sequence[int],
    used: int,
    retries: int,
    backoff: float,
    timeout: Optional[float],
    complete,
) -> None:
    """Pooled execution with retry-on-worker-death and timeouts.

    Results are collected in submission order, so ``complete`` fires in
    spec order for metrics-merge determinism.  The happy path is one
    full-width pool round; ``BrokenProcessPool`` fails *every* pending
    future (the executor cannot say whose worker died), so a broken
    round charges no one — the unfinished specs are re-run in
    *isolation rounds* (one spec per fresh pool, after capped
    exponential backoff) where a crash is unambiguously attributable
    and only the actual culprit burns its retry budget.  A spec that
    exceeds the per-spec ``timeout`` becomes a FailedRun immediately
    and its pool is terminated, which guarantees forward progress.
    """
    pending = list(todo)
    attempts = {i: 0 for i in todo}
    isolate = False
    round_index = 0
    while pending:
        batch, pending = pending, []
        if not isolate:
            broke = _pool_round(
                specs, batch, used, attempts, retries, timeout,
                complete, pending, charge=False,
            )
            if broke:
                isolate = True
                _backoff_sleep(round_index, backoff)
                round_index += 1
        else:
            for i in batch:
                broke = _pool_round(
                    specs, [i], 1, attempts, retries, timeout,
                    complete, pending, charge=True,
                )
                if broke:
                    _backoff_sleep(round_index, backoff)
                    round_index += 1


def _pool_round(
    specs: Sequence[RunSpec],
    batch: Sequence[int],
    width: int,
    attempts: Dict[int, int],
    retries: int,
    timeout: Optional[float],
    complete,
    requeue: List[int],
    charge: bool,
) -> bool:
    """One pool lifetime over ``batch``; True when the pool broke.

    ``charge`` marks whether a ``BrokenProcessPool`` is attributable to
    the spec observing it (single-spec isolation rounds) or ambient
    (full-width rounds, where the culprit's death fails every pending
    future); unattributable breaks requeue the spec without burning its
    retry budget.
    """
    pool = ProcessPoolExecutor(
        max_workers=min(width, len(batch)), initializer=mark_pool_worker
    )
    broke = False
    timed_out = False
    try:
        futures = {
            i: pool.submit(_pool_entry, (specs[i], attempts[i]))
            for i in batch
        }
        for i in batch:
            spec = specs[i]
            try:
                summary = futures[i].result(timeout=timeout)
            except FuturesTimeoutError:
                complete(
                    i,
                    FailedRun(
                        spec,
                        "exceeded per-spec timeout of %.1fs" % timeout,
                        "timeout",
                        attempts[i] + 1,
                    ),
                )
                timed_out = True
                _terminate_pool(pool)
            except BrokenProcessPool:
                broke = True
                if timed_out or not charge:
                    requeue.append(i)  # victim of someone else's death
                    continue
                attempts[i] += 1
                if attempts[i] > retries:
                    complete(
                        i,
                        FailedRun(
                            spec,
                            "worker died (BrokenProcessPool) on every "
                            "attempt",
                            "worker-crash",
                            attempts[i],
                        ),
                    )
                else:
                    requeue.append(i)
            except Exception as exc:  # noqa: BLE001 - placeholder contract
                complete(
                    i,
                    FailedRun(
                        spec,
                        "%s: %s" % (type(exc).__name__, exc),
                        "exception",
                        attempts[i] + 1,
                    ),
                )
            else:
                complete(i, summary)
    finally:
        # After a termination the workers are already gone; after a
        # clean round every future is done — never block on exit.
        pool.shutdown(wait=not (broke or timed_out), cancel_futures=True)
    return broke or timed_out


def _prewarm(specs: Sequence[RunSpec]) -> None:
    """Build each distinct city/registry once in the parent.

    Under the default ``fork`` start method workers then inherit the
    built caches instead of re-generating the city per process; under
    ``spawn`` this is merely a cheap no-op for the children.  Timed by
    the caller and reported as ``cache_build_s`` so batch wall time
    measures the runs, not the cache construction.
    """
    for city_seed in sorted(
        {spec.city_seed for spec in specs if spec.shard_scenario is None}
    ):
        shared_wigle(city_seed)


def metrics_path(name: str = "metrics") -> pathlib.Path:
    """Where the metrics artefact goes (see
    :func:`repro.obs.artifacts.artifact_dir` for the resolution rule)."""
    return artifact_path(name)


def merged_metrics(results: Sequence[RunResult]) -> dict:
    """Fold every completed run's registry snapshot, in result order.

    Result order is spec order regardless of worker count, so the merge
    (float counter sums included) is worker-count invariant.  FailedRun
    placeholders contribute nothing.
    """
    return merge_snapshots(
        r.metrics
        for r in results
        if isinstance(r, RunSummary) and r.metrics is not None
    )


def _spec_venue(spec: RunSpec) -> Optional[str]:
    if spec.shard_scenario is not None:
        return "shard-city:%dx%d" % (
            spec.shard_scenario.stations,
            spec.shard_scenario.sensors,
        )
    return (
        spec.venue if spec.venue is not None else spec.scenario.venue_name
    )


def metrics_doc(
    results: Sequence[RunResult],
    workers: int,
    timings: Optional[dict] = None,
) -> dict:
    """Assemble the batch metrics artefact as a plain dict.

    The document carries the merged registry plus one entry per run
    (tag, seed, snapshot, retained events) so per-run timelines — the
    PB/FB series in particular — survive next to the aggregate.  Failed
    runs keep their slot with an empty snapshot and an ``error`` field.
    When ``timings`` is given (the :func:`timings_doc` of the same
    batch) it is embedded under a ``timings`` key, so one artefact
    carries the full run record.  Everything except
    ``workers``, the ``timers`` sections and ``timings`` is a pure
    function of the specs — the property the golden-master tests pin
    (see :mod:`repro.obs.golden`).
    """
    runs = []
    for r in results:
        entry = {
            "tag": r.spec.tag,
            "attacker": r.spec.attacker,
            "venue": _spec_venue(r.spec),
            "seed": r.spec.seed,
        }
        if isinstance(r, RunSummary):
            entry["metrics"] = r.metrics if r.metrics is not None else {}
            entry["events"] = list(r.events)
        else:
            entry["metrics"] = MetricsRegistry().to_dict()
            entry["events"] = []
            entry["failed"] = True
            entry["error"] = r.error
            entry["failure_kind"] = r.kind
            entry["attempts"] = r.attempts
        runs.append(entry)
    doc = {
        "schema": METRICS_SCHEMA,
        "workers": workers,
        "run_count": len(results),
        "merged": merged_metrics(results),
        "runs": runs,
    }
    if timings is not None:
        doc["timings"] = timings
    return doc


def write_metrics(
    results: Sequence[RunResult],
    workers: int,
    name: str = "metrics",
    timings: Optional[dict] = None,
) -> pathlib.Path:
    """Persist :func:`metrics_doc` as an artefact; returns its path."""
    doc = metrics_doc(results, workers, timings=timings)
    path = write_json(metrics_path(name), doc, indent=2)
    # Scrape-able twin of the JSON artefact: same merged counters and
    # gauges in Prometheus text exposition format, for node_exporter's
    # textfile collector or a CI health check (``repro obs prom``
    # regenerates it from the JSON on demand).
    from repro.obs.prom import write_prom

    write_prom(doc, path.with_suffix(".prom"))
    return path


def timings_doc(
    results: Sequence[RunResult],
    workers: int,
    total_wall: float,
    cache_build: float = 0.0,
) -> dict:
    """Assemble the batch timing document as a plain dict.

    The serial estimate is the sum of per-run wall times, so the
    recorded speedup is against running the same batch with one worker
    in the same session.  Cache construction (city/WiGLE prewarm) is
    reported separately as ``cache_build_s`` rather than skewing the
    batch wall.
    """
    completed = [r for r in results if isinstance(r, RunSummary)]
    serial_estimate = sum(r.wall_time for r in completed)
    runs = []
    for r in results:
        entry = {
            "tag": r.spec.tag,
            "attacker": r.spec.attacker,
            "venue": _spec_venue(r.spec),
            "seed": r.spec.seed,
        }
        if isinstance(r, RunSummary):
            entry["sim_duration_s"] = r.duration
            entry["wall_time_s"] = round(r.wall_time, 4)
        else:
            entry["failed"] = True
            entry["error"] = r.error
            entry["failure_kind"] = r.kind
            entry["attempts"] = r.attempts
        runs.append(entry)
    return {
        "workers": workers,
        "run_count": len(results),
        "failed_count": len(results) - len(completed),
        "cache_build_s": round(cache_build, 4),
        "total_wall_time_s": round(total_wall, 4),
        "serial_estimate_s": round(serial_estimate, 4),
        "speedup_vs_serial_estimate": (
            round(serial_estimate / total_wall, 3) if total_wall > 0 else None
        ),
        "runs": runs,
    }


def write_batch_profile(
    results: Sequence[RunResult],
    name: str = "profile",
) -> Optional[pathlib.Path]:
    """Persist the merged per-handler profile of a batch, when any run
    carried one (``REPRO_PROFILE``); returns its path or None."""
    docs = [
        r.profile
        for r in results
        if isinstance(r, RunSummary) and r.profile is not None
    ]
    if not docs:
        return None
    return write_json(artifact_path(name), merge_profiles(docs), indent=2)
