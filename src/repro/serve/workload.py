"""The synthetic probe stream ``repro serve run`` serves.

An open-loop event stream shaped like city traffic — many concurrent
clients, mostly broadcast probes, a direct-probe minority revealing
home SSIDs, and a trickle of association feedback — generated
deterministically from a seed, so every run and every
replay-determinism check sees the same bytes.  The shares are guesses,
not measurements: perfbench's serve-open workload, which times the
serving plane, replays a recorded simulator stream instead.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.serve.events import Event, FeedbackEvent, ProbeEvent
from repro.util.rng import derive_seed

WORKLOAD_STREAM = "serve-workload"


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
