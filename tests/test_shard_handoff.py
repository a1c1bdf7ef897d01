"""Handoff-protocol properties: boundary crossings change nothing.

The deterministic handoff contract, stated as properties:

* a walker that crosses a shard boundary mid-scan produces exactly the
  same untried-list / PB / FB evolution at every hunter as the
  unsharded run — ownership transfer is invisible to the workload;
* records applied at a barrier are processed in canonical
  :func:`~repro.sim.shards.handoff.sort_key` order even when several
  walkers cross simultaneously, so the applied-record log of any shard
  is batch-monotonic in the shard-count-invariant key.

Runs under hypothesis when installed (the ``dev`` extra); otherwise a
seeded-random sweep keeps the properties exercised.
"""

import pytest

from repro.sim.shards import ShardScenario, run_sharded
from repro.sim.shards.handoff import MIGRATE

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without dev extras
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)

SEED_SWEEP = list(range(8))


def _scenario(seed: int, open_share: float = 0.6) -> ShardScenario:
    # Sized so walkers actually cross stripe seams: the city is 360 m
    # (three district columns) and the fastest walkers cover ~324 m
    # within the duration, so both interior seams see traffic.
    return ShardScenario(
        stations=60,
        sensors=8,
        duration=180.0,
        seed=seed,
        size_m=360.0,
        open_share=open_share,
    )


def _crossers(scenario: ShardScenario, shards: int):
    """Walkers whose shard owner changes during their in-city window."""
    from repro.sim.shards.soa import T0, T_EXIT

    from .shard_oracle import derive_walkers_scalar, position_of

    part = scenario.partition()
    batch = derive_walkers_scalar(scenario)
    out = []
    for i in range(batch.n):
        t_in = float(batch.static[T0, i])
        t_out = min(float(batch.static[T_EXIT, i]), scenario.duration)
        if t_out <= t_in:
            continue
        a = part.shard_of_point(*position_of(batch, i, t_in), shards)
        b = part.shard_of_point(*position_of(batch, i, t_out), shards)
        if a != b:
            out.append(i)
    return out


def _untried_evolution(result):
    """(sensor, walker) -> sorted sent items, plus each hunter's PB order
    and FB — the complete offering evolution, from collected states."""
    evolution = {}
    for sid, (weights, order, fb, sent) in sorted(result.hunter_states.items()):
        evolution[sid] = {
            "pb_order": order,
            "fb": fb,
            "weights": weights,
            "sent": {walker: items for walker, items in sent},
        }
    return evolution


# -- property drivers -----------------------------------------------------


def check_crossing_invisible(seed: int, shards: int) -> None:
    scenario = _scenario(seed)
    whole = run_sharded(scenario, shards=1)
    cut = run_sharded(scenario, shards=shards)
    assert cut.digest() == whole.digest()
    assert cut.walker_rows == whole.walker_rows
    assert _untried_evolution(cut) == _untried_evolution(whole)


def check_applied_log_batch_monotonic(seed: int, shards: int) -> None:
    scenario = _scenario(seed)
    result = run_sharded(scenario, shards=shards, log_handoffs=True)
    for shard, log in result.handoff_logs.items():
        runs = 0
        prev_kind = None
        prev_key = None
        for kind, t, district, walker, sensor in log:
            key = (t, district, walker, sensor)
            if kind == prev_kind:
                assert prev_key <= key, (
                    f"shard {shard}: {kind!r} batch out of order: "
                    f"{prev_key} then {key}"
                )
            else:
                runs += 1
            prev_kind, prev_key = kind, key
        assert runs > 0 or not log


# -- hypothesis harness ---------------------------------------------------


if HAVE_HYPOTHESIS:

    @needs_hypothesis
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        shards=st.sampled_from([2, 3]),
    )
    def test_boundary_crossing_is_invisible_property(seed, shards):
        check_crossing_invisible(seed, shards)


def test_boundary_crossing_is_invisible_sweep():
    for seed in SEED_SWEEP[:3]:
        check_crossing_invisible(seed, 2)


def test_crossings_actually_happen():
    """Guard against a vacuous property: the standard test scenario must
    contain walkers that cross the 2-shard seam mid-run, and some of
    them must have scanned (probed) while in the city."""
    scenario = _scenario(0)
    crossers = _crossers(scenario, 2)
    assert len(crossers) >= 5
    result = run_sharded(scenario, shards=2)
    rows = result.walker_rows
    scanned = [i for i in crossers if rows[i][4] > 0]
    assert scanned, "no boundary-crossing walker ever scanned"


def test_crossing_walker_keeps_dynamic_state():
    """A crosser's scans/probes/offers accumulate across the ownership
    transfer — the migrated DynamicRow is the same row the unsharded run
    produces."""
    scenario = _scenario(0)
    whole = run_sharded(scenario, shards=1)
    cut = run_sharded(scenario, shards=4)
    for i in _crossers(scenario, 4):
        assert cut.walker_rows[i] == whole.walker_rows[i]


# -- simultaneous-crossing ordering regression ----------------------------


def test_simultaneous_crossings_apply_in_sorted_order():
    """Many walkers migrating at the same barrier into the same shard
    must be applied in (time, district, walker) order, not arrival
    order; the applied-record log pins that."""
    scenario = ShardScenario(
        stations=200,
        sensors=12,
        duration=180.0,
        seed=5,
        size_m=360.0,
    )
    result = run_sharded(scenario, shards=2, log_handoffs=True)
    simultaneous = 0
    for shard, log in result.handoff_logs.items():
        migrations = [rec for rec in log if rec[0] == MIGRATE]
        assert migrations, f"shard {shard} never received a migration"
        by_time = {}
        for rec in migrations:
            by_time.setdefault(rec[1], []).append(rec)
        for t, batch in by_time.items():
            if len(batch) >= 2:
                simultaneous += 1
                assert batch == sorted(batch), (
                    f"shard {shard} applied simultaneous migrations at "
                    f"t={t} out of order"
                )
    assert simultaneous > 0, "scenario produced no simultaneous crossings"
    # And the cut run still reproduces the unsharded digest.
    assert result.digest() == run_sharded(scenario, shards=1).digest()


def test_applied_log_batch_monotonic_sweep():
    for seed in SEED_SWEEP[:3]:
        check_applied_log_batch_monotonic(seed, 2)
    check_applied_log_batch_monotonic(0, 4)
