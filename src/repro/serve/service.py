"""Attacker-as-a-service: the asyncio serving layer.

:class:`RankingService` turns the synchronous
:class:`~repro.serve.core.RankingCore` into a traffic-serving system:
probe-request events flow in through a bounded ingress queue, one
consumer task applies them to the core, and burst decisions flow out —
with explicit backpressure, load-shed accounting and ``serve.*``
metrics through the standard
:class:`~repro.obs.registry.MetricsRegistry`.

**Determinism.**  The ranking state (SSID store, PB/FB split,
ghost-pick RNG) is shared across every client, so the *apply order* of
events decides every downstream burst.  The core is pure Python on one
thread, so there is nothing to gain from more than one consumer: the
single consumer takes events off the FIFO queue in ingress order and
applies each before taking the next.  Decisions therefore come out in
ingress order at any queue bound, which is what makes the differential
harness meaningful.

**Backpressure vs shedding.**  The default policy is backpressure:
``submit`` awaits queue space, pushing the wait onto the producer (a
capture pipeline that cannot buffer should shed upstream).  With
``shed=True`` a full queue drops *probe* events on the floor — counted
in ``serve.shed_total`` — but feedback events always take the
backpressure path: losing a probe costs one response opportunity,
losing feedback forks the ranking state from reality.

**Event faults.**  An exception while applying one event (in the core
or in the decision callback) is counted in ``serve.events_failed``,
logged as one ``serve.event_failed`` entry in ``events_log``, and the
consumer moves on to the next event; the queue slot is released either
way, so a poisoned event never wedges ``drain()``.
"""

from __future__ import annotations

import asyncio
import os
import time as _time
import traceback
from typing import Callable, Iterable, List, Optional, Tuple

from repro.obs.registry import (
    METRICS_SCHEMA,
    MetricsRegistry,
    estimate_percentile,
    metric_key,
)
from repro.obs.reqtrace import maybe_request_trace
from repro.obs.telemetry import HeartbeatWriter, resolve_heartbeat_interval
from repro.serve.core import RankingCore
from repro.serve.events import BurstDecision, Event, FeedbackEvent, ProbeEvent
from repro.util.settings import parse_int_setting

DEFAULT_QUEUE_MAX = 1024

LATENCY_BUCKETS_US: Tuple[float, ...] = (
    50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600,
)
"""Burst-selection latency histogram bounds, microseconds (an overflow
bucket is implicit).  Wall-clock observations: like the ``timers``
section, these are *not* part of the deterministic metric surface."""

STAGE_BUCKETS_US: Tuple[float, ...] = (
    50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600,
    102400, 409600, 1638400, 6553600,
)
"""Queue-wait histogram bounds, microseconds.  The wait is dominated by
backlog, not compute, so the range extends to ~6.5 s before the
overflow bucket.  Wall-clock, like the select histogram."""

_EVENTS_KEY = {
    etype: metric_key("serve.events_total", {"type": etype})
    for etype in ("feedback", "direct", "broadcast")
}
_DECISIONS_KEY = {
    kind: metric_key("serve.decisions_total", {"kind": kind})
    for kind in ("burst", "mimic")
}
"""Pre-computed counter keys for the per-event hot path."""


def resolve_queue_max(queue_max: Optional[int] = None) -> int:
    """Ingress bound: explicit arg, else 1024.  A non-integer or sub-1
    value raises a ValueError naming ``queue_max``."""
    if queue_max is None:
        return DEFAULT_QUEUE_MAX
    return parse_int_setting("queue_max", queue_max, 1)


class RankingService:
    """Async probe-stream server over one shared :class:`RankingCore`.

    Decisions go to ``on_decision`` when given, else to ``decisions``."""

    def __init__(
        self,
        core: RankingCore,
        queue_max: Optional[int] = None,
        shed: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        on_decision: Optional[Callable[[BurstDecision], None]] = None,
        req_trace: Optional[bool] = None,
    ):
        self.core = core
        self.queue_max = resolve_queue_max(queue_max)
        self.heartbeat_interval = resolve_heartbeat_interval()
        self.shed = shed
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.decisions: List[BurstDecision] = []
        self._on_decision = (
            on_decision if on_decision is not None else self.decisions.append
        )
        self.decision_count = 0
        self.events_log: List[dict] = []
        self._queue: Optional[asyncio.Queue] = None
        self._next_seq = 0
        self._consumer: Optional[asyncio.Task] = None
        # Observe-only instrumentation: the span ring never touches an
        # RNG stream and the heartbeat thread never mutates core state,
        # so digests are identical with both on or off.
        self.reqtrace = maybe_request_trace(req_trace)
        self._heartbeat: Optional[HeartbeatWriter] = None
        self._committed = 0
        self._hb_anchor: Tuple[float, int] = (0.0, 0)

    # -- lifecycle -------------------------------------------------------------

    def _ensure_queue(self) -> asyncio.Queue:
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self.queue_max)
        return self._queue

    async def start(self) -> None:
        """Spawn the consumer task (and the heartbeat thread, if on)."""
        if self._consumer is not None:
            return
        self._consumer = asyncio.get_running_loop().create_task(
            self._consume(self._ensure_queue())
        )
        if self.heartbeat_interval is not None and self._heartbeat is None:
            self._heartbeat = HeartbeatWriter(
                "serve",
                1.0,  # rescaled to the submitted count on every beat
                lambda: (float(self._committed), self.decision_count),
                interval_s=self.heartbeat_interval,
                file_stem="serve-%d" % os.getpid(),
                extra=self._heartbeat_extra,
            ).__enter__()

    async def drain(self) -> None:
        """Wait until every accepted event has been applied."""
        if self._queue is not None:
            await self._queue.join()

    async def stop(self) -> None:
        """Cancel the consumer (drain first for a clean shutdown)."""
        consumer, self._consumer = self._consumer, None
        if consumer is not None:
            consumer.cancel()
            try:
                await consumer
            except asyncio.CancelledError:
                pass
        if self._heartbeat is not None:
            heartbeat, self._heartbeat = self._heartbeat, None
            heartbeat.__exit__(None, None, None)

    # -- ingress ---------------------------------------------------------------

    async def submit(self, event: Event) -> bool:
        """Offer one event; returns False when shed (never for feedback)."""
        queue = self._ensure_queue()
        etype = "feedback" if isinstance(event, FeedbackEvent) else (
            "direct" if event.is_direct else "broadcast"
        )
        self.metrics.inc_key(_EVENTS_KEY[etype])
        if (
            self.shed
            and isinstance(event, ProbeEvent)
            and queue.full()
        ):
            self.metrics.inc("serve.shed_total", type=etype)
            return False
        seq = self._next_seq
        self._next_seq += 1
        t_offer = _time.perf_counter()
        await queue.put((seq, event, t_offer))
        self.metrics.gauge_max("serve.queue_depth_peak", queue.qsize())
        if self.reqtrace is not None:
            # The enqueue span covers any backpressure wait for queue
            # space; queue_wait starts at the offer for the same reason.
            self.reqtrace.record(
                "enqueue",
                seq,
                t_offer,
                _time.perf_counter() - t_offer,
                mac=event.mac,
                etype=etype,
            )
        return True

    # -- consumer --------------------------------------------------------------

    async def _consume(self, queue: asyncio.Queue) -> None:
        while True:
            seq, event, t_offer = await queue.get()
            try:
                self._apply(seq, event, t_offer)
            except Exception as exc:
                self.metrics.inc("serve.events_failed")
                self.events_log.append(
                    {
                        "kind": "serve.event_failed",
                        "seq": seq,
                        "time": event.time,
                        "mac": event.mac,
                        "error": repr(exc),
                        "traceback": traceback.format_exc(),
                    }
                )
            finally:
                queue.task_done()

    def _apply(self, seq: int, event: Event, t_offer: float) -> None:
        start = _time.perf_counter()
        self.metrics.observe(
            "serve.queue_wait_us",
            (start - t_offer) * 1e6,
            buckets=STAGE_BUCKETS_US,
        )
        if self.reqtrace is not None:
            self.reqtrace.record("queue_wait", seq, t_offer, start - t_offer)
        decision = self.core.handle(event)
        t_rank = _time.perf_counter()
        elapsed_us = (t_rank - start) * 1e6
        if isinstance(event, ProbeEvent):
            self.metrics.observe(
                "serve.select_latency_us",
                elapsed_us,
                buckets=LATENCY_BUCKETS_US,
            )
            self.metrics.timer_add("serve.select", elapsed_us / 1e6)
        if decision is not None:
            self.decision_count += 1
            self.metrics.inc_key(_DECISIONS_KEY[decision.kind])
            self.metrics.inc("serve.ssids_offered", len(decision.ssids))
            self._on_decision(decision)
        t_apply = _time.perf_counter()
        self.metrics.observe(
            "serve.apply_us",
            (t_apply - t_rank) * 1e6,
            buckets=LATENCY_BUCKETS_US,
        )
        if self.reqtrace is not None:
            self.reqtrace.record(
                "rank",
                seq,
                start,
                t_rank - start,
                kind=None if decision is None else decision.kind,
            )
            self.reqtrace.record("apply", seq, t_rank, t_apply - t_rank)
        # Last, so an event that raises anywhere above counts once, in
        # serve.events_failed, and never here.
        self._committed += 1

    # -- bookkeeping -----------------------------------------------------------

    def _heartbeat_extra(self) -> dict:
        """Serving vitals for one heartbeat record (read-only).

        Runs on the heartbeat thread: every value is a plain read of
        int/float attributes or histogram buckets the event loop writes
        — a torn read smears one beat, never the service.
        """
        now = _time.perf_counter()
        hist = self.metrics.histogram("serve.select_latency_us")
        probes = hist.count if hist is not None else 0
        last_wall, last_probes = self._hb_anchor
        rate = None
        if last_wall and now > last_wall:
            rate = round((probes - last_probes) / (now - last_wall), 1)
        self._hb_anchor = (now, probes)
        submitted = self._next_seq
        shed = self.shed_total()
        offered = submitted + shed
        if self._heartbeat is not None:
            # Fraction in the base record = committed / submitted.
            self._heartbeat.duration_s = float(max(1, submitted))
        return {
            "kind": "serve",
            "events": int(offered),
            "committed": int(self._committed),
            "probes_per_s": rate,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_max": self.queue_max,
            "shed": int(shed),
            "shed_fraction": (
                round(shed / offered, 6) if offered else 0.0
            ),
            "p50_us": estimate_percentile(hist, 50) if hist else None,
            "p99_us": estimate_percentile(hist, 99) if hist else None,
            "events_failed": int(
                self.metrics.counter_value("serve.events_failed")
            ),
        }

    def finish(self) -> None:
        """Fold the core's deterministic counters into the registry."""
        stats = self.core.stats()
        self.metrics.gauge_set("serve.db_size", stats["db_size"])
        self.metrics.gauge_set("serve.clients", stats["clients"])
        self.metrics.gauge_set("serve.pb_size", stats["pb_size"])
        self.metrics.gauge_set("serve.fb_size", stats["fb_size"])
        hits, misses = stats["rank_cache_hits"], stats["rank_cache_misses"]
        if hits:
            self.metrics.inc("serve.rank_cache", hits, result="hit")
        if misses:
            self.metrics.inc("serve.rank_cache", misses, result="miss")
        if self.reqtrace is not None:
            self.metrics.gauge_set(
                "reqtrace.records", float(len(self.reqtrace))
            )
            self.metrics.gauge_set(
                "reqtrace.dropped", float(self.reqtrace.dropped)
            )
            self.metrics.gauge_set(
                "reqtrace.cap", float(self.reqtrace.max_records)
            )
            self.reqtrace.flush()

    def shed_total(self) -> float:
        """Total events shed so far (all types)."""
        return sum(
            self.metrics.counters_named("serve.shed_total").values()
        )


async def serve_stream(
    service: RankingService, events: Iterable[Event]
) -> List[BurstDecision]:
    """Run one bounded stream to completion through ``service``."""
    stream_start = _time.perf_counter()
    await service.start()
    try:
        for event in events:
            await service.submit(event)
        await service.drain()
    finally:
        await service.stop()
    # Wall time of the whole stream (quarantined in ``timers``): what
    # ``obs summarize`` divides the probe count by for probes/s.
    service.metrics.timer_add(
        "serve.stream", _time.perf_counter() - stream_start
    )
    service.finish()
    return service.decisions


def serve_metrics_doc(
    service: RankingService,
    tag: str = "serve",
    seed: int = 0,
    venue: Optional[str] = None,
) -> dict:
    """One serving run as a standard ``repro.metrics/v1`` artefact.

    The same document shape the batch executor writes, so the whole
    ``obs`` toolchain — ``summarize``, ``prom``, the schema validator —
    works on serving runs unchanged.
    """
    snapshot = service.metrics.to_dict()
    return {
        "schema": METRICS_SCHEMA,
        # One consumer; the field keeps the executor's document shape.
        "workers": 1,
        "run_count": 1,
        "merged": snapshot,
        "runs": [
            {
                "tag": tag,
                "attacker": "serve",
                "venue": venue,
                "seed": seed,
                "metrics": snapshot,
                "events": list(service.events_log),
            }
        ],
    }


def run_stream(
    core: RankingCore,
    events: Iterable[Event],
    queue_max: Optional[int] = None,
    shed: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    req_trace: Optional[bool] = None,
) -> RankingService:
    """Synchronous convenience: serve ``events``, return the service.

    The returned service carries the decision list and the metrics
    registry.
    """
    service = RankingService(
        core,
        queue_max=queue_max,
        shed=shed,
        metrics=metrics,
        req_trace=req_trace,
    )
    asyncio.run(serve_stream(service, events))
    return service
