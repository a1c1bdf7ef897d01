"""District-sharded city: RNG, partition, SoA and engine invariance.

The contract under test is the tentpole of the sharding PR: a
:class:`~repro.sim.shards.scenario.ShardScenario` produces the exact
same result — ``shardsim.*`` metrics, walker rows, hunter states, and
therefore :meth:`~repro.sim.shards.engine.ShardRunResult.digest` — at
any shard count, in either execution mode, and equal to the scalar
reference in ``tests/shard_oracle.py``.
Everything here runs small scenarios (seconds, not minutes); the
golden-scale pins live in ``test_shard_golden.py``.
"""

import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.faults.shards import ShardFaultParams
from repro.geo.grid import DistrictPartition
from repro.obs.artifacts import ARTIFACT_DIR_ENV
from repro.sim.shards import (
    CKPT_EVERY_ENV,
    MAX_RECOVERIES_ENV,
    PHASE_TIMEOUT_ENV,
    SHARD_MODE_ENV,
    SHARDS_ENV,
    ShardScenario,
    resolve_ckpt_every,
    resolve_shard_mode,
    resolve_shards,
    run_sharded,
)
from repro.sim.shards import shard as shard_module
from repro.sim.shards.attacker import LiteHunter
from repro.sim.shards.checkpoint import checkpoint_dir, load_manifest
from repro.sim.shards.engine import resolve_max_recoveries, resolve_phase_timeout
from repro.sim.shards.scenario import derive_sensors, derive_walkers
from repro.sim.shards.shard import ShardRuntime
from repro.sim.shards.srng import stream_base, u01, u01_vec

from .shard_oracle import derive_walkers_scalar, run_scalar

# Sized so shard seams see real traffic: walkers cover up to ~324 m in
# the duration, crossing interior stripe boundaries at 2+ shards.
SMALL = ShardScenario(
    stations=80,
    sensors=10,
    duration=180.0,
    seed=13,
    size_m=360.0,
)


@pytest.fixture(scope="module")
def small_result():
    """The 1-shard reference run of the small scenario."""
    return run_sharded(SMALL, shards=1)


# -- stateless RNG --------------------------------------------------------


class TestStatelessRng:
    def test_scalar_in_unit_interval_and_deterministic(self):
        base = stream_base(7, "walker")
        draws = [u01(base, i, c) for i in range(50) for c in range(4)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [u01(base, i, c) for i in range(50) for c in range(4)]

    def test_vector_bit_identical_to_scalar(self):
        base = stream_base(99, "walker")
        ids = np.arange(500, dtype=np.uint64)
        for counter in (0, 1, 7, 12345):
            vec = u01_vec(base, ids, counter)
            scalar = np.array([u01(base, int(i), counter) for i in ids])
            assert (vec == scalar).all()

    def test_streams_do_not_collide(self):
        walkers = stream_base(7, "walker")
        sensors = stream_base(7, "sensor")
        assert walkers != sensors
        assert u01(walkers, 0, 0) != u01(sensors, 0, 0)


# -- district partition ---------------------------------------------------


class TestDistrictPartition:
    def test_stripes_tile_the_city(self):
        part = DistrictPartition(960.0, 120.0)
        for shards in (1, 2, 3, 4, 8):
            bounds = [part.stripe_bounds(k, shards) for k in range(shards)]
            assert bounds[0][0] == 0.0
            assert bounds[-1][1] == part.size_m
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo

    def test_point_owner_matches_stripe(self):
        part = DistrictPartition(960.0, 120.0)
        for shards in (1, 2, 4):
            for x in np.linspace(0.0, 959.9, 97):
                owner = part.shard_of_point(float(x), 5.0, shards)
                lo, hi = part.stripe_bounds(owner, shards)
                assert lo <= x < hi or (x >= lo and hi == part.size_m)

    def test_district_ids_are_shard_count_invariant(self):
        """The handoff sort key leans on this: districts never move."""
        part = DistrictPartition(720.0, 120.0)
        assert part.districts == 36
        assert part.district_of(0.0, 0.0) == 0
        assert part.district_of(719.0, 719.0) == 35
        # Clamping: points nudged outside still map into the grid.
        assert part.district_of(-5.0, 9999.0) == 30

    def test_every_column_owned_exactly_once(self):
        part = DistrictPartition(2400.0, 120.0)
        for shards in (1, 2, 4, 7):
            owners = [part.shard_of_column(ix, shards) for ix in range(part.nx)]
            assert set(owners) == set(range(shards))
            assert owners == sorted(owners)  # contiguous stripes


# -- derivations ----------------------------------------------------------


class TestDerivations:
    def test_backends_derive_identical_walkers(self):
        """The vector derivation against the one-walker-at-a-time
        reference: every static column bit-identical, same PNLs."""
        a = derive_walkers(SMALL)
        b = derive_walkers_scalar(SMALL)
        assert a.static.shape == b.static.shape == (8, SMALL.stations)
        assert a.static.tolist() == b.static.tolist()
        assert a.pnl_open == b.pnl_open

    def test_sensors_inside_city(self):
        for sid, x, y in derive_sensors(SMALL):
            assert 0.0 <= x < SMALL.size_m
            assert 0.0 <= y < SMALL.size_m

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ShardScenario(stations=0, sensors=4, duration=60.0)
        with pytest.raises(ValueError):
            ShardScenario(stations=4, sensors=4, duration=60.0, size_m=50.0)
        with pytest.raises(ValueError):
            ShardScenario(stations=4, sensors=4, duration=60.0, open_share=0.0)
        for field, bad in (
            ("burst_size", 0),
            ("pb_size", 0),
            ("pb_size", -3),
            ("fb_size", -1),
        ):
            with pytest.raises(ValueError, match=field):
                ShardScenario(stations=4, sensors=4, duration=60.0, **{field: bad})
        # An empty FB is allowed: every burst then comes from the PB top.
        ShardScenario(stations=4, sensors=4, duration=60.0, fb_size=0)


# -- LiteHunter core ------------------------------------------------------


class TestLiteHunter:
    def test_burst_never_repeats_per_walker(self):
        hunter = LiteHunter(universe=40, pb_size=20, fb_size=4, burst_size=6)
        seen = set()
        for _ in range(5):
            burst = hunter.burst_for(3)
            assert not (set(burst) & seen)
            seen |= set(burst)
        assert hunter.untried(3) == frozenset(range(40)) - seen

    def test_feedback_moves_ssid_up_and_into_fb(self):
        hunter = LiteHunter(universe=10, pb_size=10, fb_size=2, burst_size=3)
        assert hunter.feedback(1, 9) is None  # never offered to walker 1
        assert hunter.order[0] == 9 or hunter.weights[9] > 1
        assert hunter.fb == [9]
        hunter.feedback(1, 4)
        assert hunter.fb == [4, 9]
        hunter.feedback(1, 7)
        assert hunter.fb == [7, 4]  # capped at fb_size=2

    def test_order_matches_sort_oracle_after_hits(self):
        hunter = LiteHunter(universe=30, pb_size=30, fb_size=4, burst_size=5)
        for ssid in (3, 3, 17, 29, 3, 17):
            hunter.feedback(0, ssid)
        oracle = sorted(range(30), key=lambda s: (-hunter.weights[s], s))
        assert hunter.order == oracle


# -- engine invariance ----------------------------------------------------


class TestShardInvariance:
    def test_digest_invariant_across_shard_counts(self, small_result):
        for shards in (2, 3, 4):
            result = run_sharded(SMALL, shards=shards)
            assert result.digest() == small_result.digest(), (
                f"digest diverged at {shards} shards"
            )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        size_m=st.sampled_from([240.0, 360.0, 480.0]),
        sensors=st.integers(min_value=1, max_value=16),
        # From well below scan_period_min_s (15 s) to well above it, so
        # one epoch can hold several scans of the same walker.
        epoch_s=st.floats(min_value=1.0, max_value=45.0),
    )
    def test_backend_invariance(self, seed, size_m, sensors, epoch_s):
        """The engine's array step (every scan of an epoch at once,
        against the stripe's candidate sensors) against the scalar
        reference (one walker, one scan and one sensor at a time, no
        pruning): same digest at 1, 2 and 4 shards, and the same records
        applied in the same order in every shard."""
        scenario = ShardScenario(
            stations=50,
            sensors=sensors,
            duration=150.0,
            seed=seed,
            size_m=size_m,
            epoch_s=epoch_s,
        )
        runs = {}
        for shards in (1, 2, 4):
            runs["engine", shards] = run_sharded(
                scenario, shards=shards, mode="inline", log_handoffs=True
            )
            runs["scalar", shards] = run_scalar(
                scenario, shards, log_handoffs=True
            )
        assert len({r.digest() for r in runs.values()}) == 1
        for shards in (1, 2, 4):
            engine_logs = runs["engine", shards].handoff_logs
            assert engine_logs == runs["scalar", shards].handoff_logs

    def test_process_mode_invariance(self, small_result):
        result = run_sharded(SMALL, shards=2, mode="process")
        assert result.mode == "process"
        assert result.digest() == small_result.digest()

    def test_transport_parity(self, tmp_path, monkeypatch, small_result):
        """Inline and process shards run one epoch loop: with handoff
        logs and checkpoints on, the process transport applies the same
        records and commits the same barrier as inline, and an inline
        stall fault moves nothing."""
        runs, manifests = {}, {}
        for mode in ("inline", "process"):
            monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / mode))
            runs[mode] = run_sharded(
                SMALL, shards=2, mode=mode, log_handoffs=True, ckpt_every=6
            )
            manifests[mode] = load_manifest(checkpoint_dir())
        inline, process = runs["inline"], runs["process"]
        assert process.digest() == inline.digest() == small_result.digest()
        assert all(inline.handoff_logs.values())
        assert process.handoff_logs == inline.handoff_logs
        for name in ("shardops.ckpt.barriers", "shardops.ckpt.writes"):
            counters = (inline.metrics["counters"], process.metrics["counters"])
            assert counters[0][name] == counters[1][name] > 0
        assert manifests["process"]["epoch"] == manifests["inline"]["epoch"] == 30
        assert manifests["process"]["files"] == manifests["inline"]["files"]
        stall = FaultPlan(
            seed=SMALL.seed,
            shard_faults=ShardFaultParams(stall_epoch=3, stall_s=0.01),
        )
        stalled = run_sharded(SMALL, shards=2, mode="inline", faults=stall)
        assert stalled.digest() == small_result.digest()

    def test_run_is_not_trivially_empty(self, small_result):
        s = small_result.summary
        assert s["probed"] > 0
        assert s["hits"] > 0
        assert s["hits"] == s["feedbacks"]
        assert s["connected"] <= s["probed"] <= SMALL.stations
        bb = small_result.buffer_breakdown()
        assert bb.from_popularity + bb.from_freshness == s["hits"]

    def test_session_summary_is_broadcast_only(self, small_result):
        summary = small_result.session_summary()
        assert summary.direct_clients == 0
        assert summary.total_clients == small_result.summary["probed"]
        assert summary.connected_broadcast == small_result.summary["connected"]

    def test_shardops_namespace_excluded_from_digest(self, small_result):
        """Per-shard operational metrics may vary with the shard count;
        the digest must only cover the shardsim workload namespace.  Two
        shards hand walkers over, so their run counts migrations."""
        result = run_sharded(SMALL, shards=2)
        counters = result.metrics["counters"]
        assert any(k.startswith("shardops.") for k in counters)
        assert all(
            k.startswith(("shardsim.", "shardops.")) for k in counters
        )
        assert result.digest() == small_result.digest()


def test_step_builds_rows_only_for_scanning_walkers(monkeypatch):
    """Each epoch's step evaluates one position per scan it emits, and
    none for an owned walker that does not scan in it: an epoch costs
    O(scans x candidate sensors), never O(owned walkers x candidate
    sensors).  The scalar reference is what the run must produce."""
    reference = run_scalar(SMALL, 2)
    epochs = []  # [positions evaluated, scans emitted] per stepped epoch
    stepping = []
    positions_vec = shard_module.positions_vec
    step_epoch = ShardRuntime._step_epoch

    def counted_positions(t, t_enter, *cols):
        if stepping:
            epochs[-1][0] += len(t_enter)
        return positions_vec(t, t_enter, *cols)

    def counted_step(runtime, t_e, t_next, out):
        scans = int(runtime.walkers.scans.sum())
        epochs.append([0, 0])
        stepping.append(True)
        try:
            step_epoch(runtime, t_e, t_next, out)
        finally:
            stepping.pop()
        epochs[-1][1] = int(runtime.walkers.scans.sum()) - scans

    monkeypatch.setattr(shard_module, "positions_vec", counted_positions)
    monkeypatch.setattr(ShardRuntime, "_step_epoch", counted_step)
    result = run_sharded(SMALL, shards=2, mode="inline")
    assert result.digest() == reference.digest()
    assert sum(scanned for _, scanned in epochs) > 0
    assert [built for built, _ in epochs] == [scanned for _, scanned in epochs]


# -- knob resolution ------------------------------------------------------

# (resolver, its variable, its argument's name in errors)
INT_KNOBS = [
    (resolve_shards, SHARDS_ENV, "shards"),
    (resolve_max_recoveries, MAX_RECOVERIES_ENV, "max recoveries"),
    (resolve_ckpt_every, CKPT_EVERY_ENV, "checkpoint period"),
]


class TestKnobResolution:
    def test_resolve_shards_env(self, monkeypatch):
        monkeypatch.delenv(SHARDS_ENV, raising=False)
        assert resolve_shards() == 1
        monkeypatch.setenv(SHARDS_ENV, "4")
        assert resolve_shards() == 4
        assert resolve_shards(2) == 2  # explicit beats env
        with pytest.raises(ValueError):
            resolve_shards(0)

    def test_resolve_mode_env(self, monkeypatch):
        monkeypatch.delenv(SHARD_MODE_ENV, raising=False)
        assert resolve_shard_mode() == "inline"
        monkeypatch.setenv(SHARD_MODE_ENV, "process")
        assert resolve_shard_mode() == "process"
        with pytest.raises(ValueError):
            resolve_shard_mode("threads")

    @pytest.mark.parametrize("resolve, env, arg", INT_KNOBS)
    @pytest.mark.parametrize("value", ["four", "2.5", "-1"])
    def test_bad_int_env_names_variable(self, monkeypatch, resolve, env, arg, value):
        monkeypatch.setenv(env, value)
        with pytest.raises(ValueError, match=env):
            resolve()

    @pytest.mark.parametrize("resolve, env, arg", INT_KNOBS)
    @pytest.mark.parametrize("value", ["four", 2.5, 1.9, 3.7])
    def test_non_integer_argument_raises(self, monkeypatch, resolve, env, arg, value):
        monkeypatch.delenv(env, raising=False)
        with pytest.raises(ValueError, match=arg):
            resolve(value)

    @pytest.mark.parametrize("value", ["fast", "0", "-2", "nan"])
    def test_bad_phase_timeout_env_names_variable(self, monkeypatch, value):
        monkeypatch.setenv(PHASE_TIMEOUT_ENV, value)
        with pytest.raises(ValueError, match=PHASE_TIMEOUT_ENV):
            resolve_phase_timeout()
        monkeypatch.delenv(PHASE_TIMEOUT_ENV)
        with pytest.raises(ValueError, match="phase timeout"):
            resolve_phase_timeout(value)


# -- benchmark artefact routing -------------------------------------------


class TestArtifactRouting:
    def test_bench_emit_honours_artifact_dir(self, tmp_path, monkeypatch):
        """The benchmark helpers must write where ``REPRO_ARTIFACT_DIR``
        points, so concurrent CI jobs stop racing on benchmarks/out/."""
        bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        monkeypatch.syspath_prepend(str(bench_dir))
        monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / "routed"))
        sys.modules.pop("_shared", None)
        import _shared

        _shared.emit("routing_probe", "hello")
        assert (tmp_path / "routed" / "routing_probe.txt").read_text() == "hello\n"
        assert _shared.out_dir() == tmp_path / "routed"
        sys.modules.pop("_shared", None)

    def test_shards_bench_doc_gateable(self, tmp_path, monkeypatch, small_result):
        """A BENCH_shards-style document round-trips through the
        bench-regression gate with the shards extractor."""
        from repro.obs.bench import compare_bench

        doc = {
            "schema": "repro.bench_shards/v1",
            "grid": [
                {
                    "stations": 80,
                    "shards": s,
                    "speedup": 1.0 if s == 1 else 2.5,
                    "stations_per_s": 1000.0 * s,
                    "handoff_fraction": 0.01,
                }
                for s in (1, 4)
            ],
            "max_speedup": 2.5,
        }
        report = compare_bench(doc, json.loads(json.dumps(doc)), tolerance=0.1)
        assert report["ok"]
        gated = [d["metric"] for d in report["deltas"] if d["gated"]]
        assert "speedup@80st/4sh" in gated
        assert "max_speedup" in gated
        assert not any(d["metric"] == "speedup@80st/1sh" for d in report["deltas"])
        worse = json.loads(json.dumps(doc))
        worse["grid"][1]["speedup"] = 1.1
        worse["max_speedup"] = 1.1
        report = compare_bench(worse, doc, tolerance=0.1)
        assert not report["ok"]
        assert "speedup@80st/4sh" in report["regressions"]


# -- heartbeats -----------------------------------------------------------


def test_per_shard_heartbeats_written(tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    monkeypatch.setenv("REPRO_HEARTBEAT", "30")
    run_sharded(SMALL, shards=2)
    files = sorted(p.name for p in (tmp_path / "telemetry").glob("shard-*.jsonl"))
    assert files == ["shard-0.jsonl", "shard-1.jsonl"]
    entry = json.loads(
        (tmp_path / "telemetry" / "shard-0.jsonl").read_text().splitlines()[-1]
    )
    assert entry["spec"] == "shard 0/2"


def test_heartbeats_off_by_default(tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
    run_sharded(SMALL, shards=2)
    assert not (tmp_path / "telemetry").exists()
