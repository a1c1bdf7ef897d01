"""Property-based fuzzing of the serving core under interleaved clients.

Random multi-client event streams drive :class:`RankingCore` directly
(the service commits through it in ingress order, so core properties
are service properties) and assert the invariants the attack's
correctness rests on, now stated at the serving boundary:

* no SSID is ever re-sent to the same MAC across bursts;
* every burst respects the cap, is duplicate-free, and takes at most
  ``ghost_picks`` SSIDs from each ghost list;
* a broadcast-only client's decisions don't depend on other clients'
  interleaved broadcast traffic (client isolation; stated with
  ``ghost_picks=0`` because ghost picks deliberately consume a shared
  RNG stream, and only for broadcast interleavings because feedback
  and direct probes mutate the shared database *by design* — that
  coupling is the attack learning).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CityHunterConfig
from repro.serve.core import RankingCore
from repro.serve.events import FeedbackEvent, ProbeEvent

N_CLIENTS = 5


def client_mac(index: int) -> str:
    """A locally administered MAC for test client ``index``."""
    return "02:5e:00:00:%02x:%02x" % ((index >> 8) & 0xFF, index & 0xFF)


def _ops():
    """One abstract op: (client, kind, selector) with kind-specific use."""
    return st.lists(
        st.tuples(
            st.integers(0, N_CLIENTS - 1),
            st.sampled_from(["broadcast", "broadcast", "broadcast",
                             "direct", "feedback"]),
            st.integers(0, 10_000),
        ),
        min_size=1,
        max_size=80,
    )


def _apply_ops(core, ops, start_time=0.0):
    """Replay abstract ops as concrete events, sim-faithfully.

    Direct probes draw from a small name pool (repeats exercise the
    weight-bump path); feedback picks an SSID actually offered to that
    client, as the medium guarantees — a client can only associate to a
    network it heard advertised.
    """
    offered = {}
    decisions = []
    t = start_time
    for client, kind, sel in ops:
        mac = client_mac(client)
        t = round(t + 0.25, 6)
        if kind == "direct":
            event = ProbeEvent(mac, t, "home-net-%d" % (sel % 12))
        elif kind == "feedback":
            pool = offered.get(mac)
            if not pool:
                continue
            event = FeedbackEvent(mac, t, pool[sel % len(pool)])
        else:
            event = ProbeEvent(mac, t)
        decision = core.handle(event)
        if decision is not None:
            decisions.append(decision)
            if decision.kind == "burst":
                offered.setdefault(mac, []).extend(
                    ssid for ssid, _, _ in decision.ssids
                )
    return decisions


class TestServeProperties:
    @settings(max_examples=25, deadline=None)
    @given(_ops(), st.integers(0, 2**31))
    def test_no_ssid_resent_to_same_mac(self, city, wigle, ops, seed):
        core = RankingCore.seeded(
            wigle, city.heatmap, city.venues[0].region.center, seed=seed
        )
        decisions = _apply_ops(core, ops)
        sent = {}
        for d in decisions:
            if d.kind != "burst":
                continue  # mimics legitimately repeat (KARMA reflection)
            seen = sent.setdefault(d.mac, set())
            burst = {ssid for ssid, _, _ in d.ssids}
            assert not (burst & seen), (
                "SSIDs re-sent to %s: %r" % (d.mac, burst & seen)
            )
            seen |= burst

    @settings(max_examples=25, deadline=None)
    @given(_ops(), st.integers(0, 2**31))
    def test_burst_caps_and_ghost_slots(self, city, wigle, ops, seed):
        config = CityHunterConfig()
        core = RankingCore.seeded(
            wigle,
            city.heatmap,
            city.venues[0].region.center,
            config=config,
            seed=seed,
        )
        for d in _apply_ops(core, ops):
            ssids = [ssid for ssid, _, _ in d.ssids]
            assert len(ssids) == len(set(ssids)), "duplicate SSID in burst"
            if d.kind != "burst":
                continue
            assert len(ssids) <= config.burst_total
            buckets = [bucket for _, _, bucket in d.ssids]
            assert buckets.count("pb_ghost") <= config.ghost_picks
            assert buckets.count("fb_ghost") <= config.ghost_picks
            assert set(buckets) <= {"pb", "fb", "pb_ghost", "fb_ghost"}

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(1, N_CLIENTS - 1), min_size=1, max_size=40),
        st.lists(st.booleans(), min_size=40, max_size=40),
        st.integers(0, 2**31),
    )
    def test_client_isolation_under_broadcast_interleaving(
        self, city, wigle, others, gaps, seed
    ):
        """Client 0's bursts don't shift when spectators probe between.

        ``others`` is a stream of broadcast probes from other clients;
        ``gaps`` decides after which of client 0's probes they are
        injected.  With ``ghost_picks=0`` (no shared-RNG coupling) and
        broadcast-only spectators (no shared-DB mutation), client 0
        must receive the identical burst sequence either way.
        """
        config = CityHunterConfig(ghost_picks=0)
        position = city.venues[0].region.center

        def run(interleave):
            core = RankingCore.seeded(
                wigle, city.heatmap, position, config=config, seed=seed
            )
            decisions = []
            t = 0.0
            spectators = list(others)
            for i in range(12):
                t = round(t + 1.0, 6)
                d = core.handle(ProbeEvent(client_mac(0), t))
                if d is not None:
                    decisions.append(d.as_row())
                if interleave and gaps[i % len(gaps)]:
                    while spectators:
                        t = round(t + 0.1, 6)
                        core.handle(ProbeEvent(client_mac(spectators.pop()), t))
                        break
            return decisions

        alone = run(interleave=False)
        crowded = run(interleave=True)
        # Timestamps differ (the spectators advance time), so compare
        # the payload: kind + SSID metadata sequence per burst.
        strip = lambda rows: [[r[0], r[2], r[3]] for r in rows]  # noqa: E731
        assert strip(alone) == strip(crowded)
