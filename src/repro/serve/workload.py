"""Synthetic probe-stream workloads and load measurement.

The serving benchmarks need an open-loop event stream that looks like
city traffic — many concurrent clients, mostly broadcast probes, a
direct-probe minority revealing home SSIDs, and a trickle of
association feedback — generated deterministically from a seed so every
measurement (and every replay-determinism check) sees the same bytes.

:func:`measure_load` is the shared harness under both
``benchmarks/bench_serve.py`` and the ``repro serve bench`` CLI: it
pushes one stream through a fresh service and reports sustained
probes/s, exact p50/p99 burst-selection latency and the shed/cache
accounting.
"""

from __future__ import annotations

import time as _time
from typing import List, Optional, Sequence

import numpy as np

from repro.obs.registry import MetricsRegistry
from repro.serve.core import RankingCore
from repro.serve.events import (
    Event,
    FeedbackEvent,
    ProbeEvent,
    decisions_digest,
)
from repro.serve.service import run_stream
from repro.util.rng import derive_seed

WORKLOAD_STREAM = "serve-workload"

SERVE_BENCH_SCHEMA = "repro.bench_serve/v1"


def client_mac(index: int) -> str:
    """Deterministic locally-administered MAC for synthetic client ``i``."""
    return "02:5e:%02x:%02x:%02x:%02x" % (
        (index >> 24) & 0xFF,
        (index >> 16) & 0xFF,
        (index >> 8) & 0xFF,
        index & 0xFF,
    )


def synthetic_stream(
    n_clients: int,
    n_events: int,
    seed: int = 0,
    direct_share: float = 0.08,
    feedback_share: float = 0.04,
    ssid_pool: Sequence[str] = (),
    interval_s: float = 0.02,
) -> List[Event]:
    """A deterministic open-loop event stream.

    Each event picks a client uniformly; a ``direct_share`` fraction are
    direct probes and a ``feedback_share`` fraction are association
    feedback, both naming SSIDs from ``ssid_pool`` (typically the
    city's WiGLE head, so feedback lands on real database entries and
    exercises the freshness path).  Without a pool, everything is
    broadcast.
    """
    rng = np.random.default_rng(derive_seed(seed, WORKLOAD_STREAM))
    events: List[Event] = []
    pool = list(ssid_pool)
    for i in range(n_events):
        t = round(i * interval_s, 6)
        mac = client_mac(int(rng.integers(n_clients)))
        draw = float(rng.random())
        if pool and draw < direct_share:
            events.append(
                ProbeEvent(mac, t, pool[int(rng.integers(len(pool)))])
            )
        elif pool and draw < direct_share + feedback_share:
            events.append(
                FeedbackEvent(mac, t, pool[int(rng.integers(len(pool)))])
            )
        else:
            events.append(ProbeEvent(mac, t))
    return events


def measure_load(
    core: RankingCore,
    events: Sequence[Event],
    queue_max: Optional[int] = None,
    shed: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    req_trace: Optional[bool] = None,
) -> dict:
    """Serve one stream as fast as possible; return the load report."""
    start = _time.perf_counter()
    service = run_stream(
        core,
        events,
        queue_max=queue_max,
        shed=shed,
        metrics=metrics,
        sample_latencies=True,
        req_trace=req_trace,
    )
    wall_s = _time.perf_counter() - start
    probes = sum(
        1 for e in events if isinstance(e, ProbeEvent)
    )
    latencies = service.latencies_us
    stats = service.core.stats()
    cache_total = stats["rank_cache_hits"] + stats["rank_cache_misses"]
    return {
        "events": len(events),
        "probes": probes,
        "decisions": len(service.decisions),
        "wall_s": round(wall_s, 4),
        "probes_per_s": round(probes / wall_s) if wall_s > 0 else None,
        "events_per_s": round(len(events) / wall_s) if wall_s > 0 else None,
        "p50_us": (
            round(float(np.percentile(latencies, 50)), 1) if latencies else None
        ),
        "p99_us": (
            round(float(np.percentile(latencies, 99)), 1) if latencies else None
        ),
        "shed": service.shed_total(),
        "shed_fraction": (
            round(service.shed_total() / len(events), 6) if events else 0.0
        ),
        "queue_depth_peak": service.metrics.gauge_value(
            "serve.queue_depth_peak"
        ),
        "rank_cache_hit_rate": (
            round(stats["rank_cache_hits"] / cache_total, 4)
            if cache_total
            else None
        ),
        "db_size": stats["db_size"],
        "clients": stats["clients"],
        "digest": decisions_digest(service.decisions),
    }


def run_bench_grid(
    clients: Sequence[int] = (20, 100),
    n_events: int = 4000,
    seed: int = 0,
    city_seed: int = 42,
    repeats: int = 1,
    venue: str = "canteen",
    req_trace: bool = False,
) -> dict:
    """Sweep the serving grid; return a ``repro.bench_serve/v1`` doc.

    Shared by ``benchmarks/bench_serve.py`` and ``repro serve bench``.
    Each client count's stream is served through a fresh core; with
    ``repeats > 1`` the fastest run per point is kept (standard
    benchmarking practice — the minimum is the least noisy estimator of
    the machine's capability).

    With ``req_trace`` only the heaviest grid point (max clients) is
    traced — spans cost nanoseconds each but the flushed JSONL does
    not, and one representative point is what the exported timeline is
    for.  Every other point runs with tracing explicitly off, so a
    ``REPRO_REQ_TRACE=1`` environment cannot skew the untraced
    measurements either.
    """
    from repro.experiments.calibration import default_city, venue_profile
    from repro.experiments.runner import shared_wigle
    from repro.wigle.queries import top_ssids_by_count

    city = default_city(city_seed)
    wigle = shared_wigle(city_seed)
    position = city.venue(venue_profile(venue).venue_name).region.center
    pool = [s for s, _ in top_ssids_by_count(wigle, 60)]
    grid: List[dict] = []
    for n_cl in clients:
        events = synthetic_stream(
            n_cl, n_events, seed=seed, ssid_pool=pool
        )
        best: Optional[dict] = None
        for _ in range(max(1, repeats)):
            core = RankingCore.seeded(
                wigle, city.heatmap, position, seed=seed
            )
            report = measure_load(
                core,
                events,
                req_trace=req_trace and n_cl == max(clients),
            )
            if best is None or (
                report["probes_per_s"] or 0
            ) > (best["probes_per_s"] or 0):
                best = report
        point = dict(best)
        point["clients"] = n_cl
        grid.append(point)
    return {
        "schema": SERVE_BENCH_SCHEMA,
        "seed": seed,
        "n_events": n_events,
        "repeats": repeats,
        "grid": grid,
        "max_probes_per_s": max(
            (p["probes_per_s"] or 0) for p in grid
        ),
    }
