"""Attacker-as-a-service: async probe-stream ranking.

The paper's attack loop — rank WiGLE-seeded SSIDs, answer each probing
client with a PB/FB/ghost burst, learn from association feedback — as a
serving system over the kernel the simulated attacker runs
(:class:`~repro.core.kernel.HunterKernel`):

* :mod:`repro.serve.events` — probe/feedback events in, burst decisions
  out, with canonical digests;
* :mod:`repro.serve.core` — the synchronous ranking core: session
  bookkeeping around the kernel, proven bit-identical to the inline
  simulator by the differential harness;
* :mod:`repro.serve.service` — the asyncio layer: bounded ingress,
  backpressure or shedding, one consumer applying events in ingress
  order, ``serve.*`` metrics;
* :mod:`repro.serve.trace` — UJI-shaped JSONL trace replay (torn-line
  tolerant);
* :mod:`repro.serve.record` — wire-tapped simulator runs: the stream
  ``repro serve run``, the differential harness and perfbench serve.

The serving plane's performance is measured by perfbench's serve-open
workload, which replays a recorded simulator stream through
:class:`~repro.serve.service.RankingService`.
"""

from repro.serve.core import RankingCore
from repro.serve.events import (
    BurstDecision,
    FeedbackEvent,
    ProbeEvent,
    decisions_by_client,
    decisions_digest,
)
from repro.serve.service import RankingService, run_stream, serve_stream

__all__ = [
    "BurstDecision",
    "FeedbackEvent",
    "ProbeEvent",
    "RankingCore",
    "RankingService",
    "decisions_by_client",
    "decisions_digest",
    "run_stream",
    "serve_stream",
]
