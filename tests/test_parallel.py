"""Tests for the parallel experiment executor (repro.experiments.parallel).

The load-bearing property is exactness: the same spec batch must produce
bit-identical results at any worker count, which in turn rests on
platform-stable derived seeds and on the shared city/WiGLE caches being
immutable.
"""

import json

import pytest

from repro.experiments.parallel import (
    RunSpec,
    derive_run_seeds,
    execute_spec,
    merged_metrics,
    replicates,
    resolve_workers,
    run_specs,
)
from repro.experiments.calibration import venue_profile
from repro.experiments.runner import shared_wigle, venue_config
from repro.experiments.scenarios import ScenarioConfig
from repro.obs.registry import validate_metrics_doc

# A deliberately tiny deployment so the pooled tests stay fast.
_QUICK = dict(duration=150.0, fidelity="burst")


def _scenario(seed=0):
    return ScenarioConfig(
        venue_name="University Canteen",
        mobility="static",
        people_per_min=25.0,
        duration=150.0,
        seed=seed,
    )


def _quick_specs(n=4, seed=7):
    return [
        RunSpec(
            attacker="cityhunter",
            venue="canteen",
            seed=s,
            tag=f"quick:{i}",
            **_QUICK,
        )
        for i, s in enumerate(derive_run_seeds(seed, n))
    ]


class TestDerivedSeeds:
    def test_stable_across_platforms(self):
        # SHA-256 derivation: these exact values must hold on every
        # platform and Python version, or parallel runs stop being
        # reproducible across machines.
        assert derive_run_seeds(7, 4) == [
            12198374251171650740,
            6662240684437893218,
            17493429955678932808,
            9053598780155620301,
        ]

    def test_distinct(self):
        seeds = derive_run_seeds(7, 64)
        assert len(set(seeds)) == 64

    def test_master_seed_matters(self):
        assert derive_run_seeds(1, 8) != derive_run_seeds(2, 8)


class TestRunSpec:
    def test_unknown_attacker_rejected(self):
        with pytest.raises(ValueError, match="unknown attacker"):
            RunSpec(attacker="evil-twin", venue="canteen")

    def test_exactly_one_route_required(self):
        with pytest.raises(ValueError, match="exactly one"):
            RunSpec(attacker="karma")
        with pytest.raises(ValueError, match="exactly one"):
            RunSpec(
                attacker="karma",
                venue="canteen",
                scenario=_scenario(),
            )

    def test_replicates_have_distinct_seeds_and_tags(self):
        base = RunSpec(attacker="karma", venue="canteen", seed=5, tag="base")
        reps = replicates(base, 4)
        assert len(reps) == 4
        assert len({r.seed for r in reps}) == 4
        assert [r.tag for r in reps] == [f"base:rep{i}" for i in range(4)]

    def test_replicates_reseed_scenario_route(self):
        base = RunSpec(
            attacker="cityhunter",
            scenario=_scenario(seed=3),
        )
        reps = replicates(base, 3, master_seed=9)
        for rep in reps:
            assert rep.scenario.seed == rep.seed
        assert [r.seed for r in reps] == derive_run_seeds(9, 3)


class TestResolveWorkers:
    def test_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(3) == 3

    def test_env_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() >= 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers()

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_workers(0)


class TestDeterminism:
    def test_parallel_matches_serial_exactly(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        specs = _quick_specs()
        serial = run_specs(specs, workers=1)
        pooled = run_specs(specs, workers=2)
        assert [r.spec.tag for r in pooled] == [s.tag for s in specs]
        for a, b in zip(serial, pooled):
            assert a.summary == b.summary
            assert a.source == b.source
            assert a.buffers == b.buffers
            assert a.people_spawned == b.people_spawned

    def test_env_worker_count_is_equivalent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        specs = _quick_specs(n=2)
        monkeypatch.setenv("REPRO_WORKERS", "1")
        serial = run_specs(specs)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pooled = run_specs(specs)
        assert [r.summary for r in serial] == [r.summary for r in pooled]


class TestTimingsArtefact:
    def test_contents(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        specs = _quick_specs(n=2)
        results = run_specs(specs, workers=1, metrics_name="metrics_test")
        doc = json.loads((tmp_path / "metrics_test.json").read_text())["timings"]
        assert doc["workers"] == 1
        assert doc["run_count"] == 2
        assert doc["total_wall_time_s"] > 0
        assert doc["serial_estimate_s"] == pytest.approx(
            sum(round(r.wall_time, 4) for r in results), abs=1e-3
        )
        assert doc["speedup_vs_serial_estimate"] is not None
        assert [run["tag"] for run in doc["runs"]] == ["quick:0", "quick:1"]
        assert all(run["venue"] == "canteen" for run in doc["runs"])


def _strip_timers(snapshot):
    """The deterministic sections of a snapshot (timers hold wall clock)."""
    return {k: v for k, v in snapshot.items() if k != "timers"}


class TestMetricsArtefact:
    def test_merged_metrics_worker_count_invariant(self, tmp_path, monkeypatch):
        # The acceptance bar for the observability layer: everything
        # except wall-clock timers must be bit-identical between a
        # serial and a pooled execution of the same batch.
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        specs = _quick_specs()
        serial = merged_metrics(run_specs(specs, workers=1))
        pooled = merged_metrics(run_specs(specs, workers=2))
        assert _strip_timers(serial) == _strip_timers(pooled)
        # Spot-check the signals the paper cares about survived the
        # merge: per-provenance counters and the PB/FB series.
        assert any(k.startswith("attacker.ssids_sent") for k in serial["counters"])
        assert "hunter.pb_size" in serial["series"]
        assert serial["counters"]["run.count"] == len(specs)

    def test_artefact_written_and_schema_valid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        results = run_specs(_quick_specs(n=2), workers=1,
                            metrics_name="metrics_test")
        doc = json.loads((tmp_path / "metrics_test.json").read_text())
        validate_metrics_doc(doc)
        assert doc["workers"] == 1
        assert [run["tag"] for run in doc["runs"]] == ["quick:0", "quick:1"]
        assert doc["merged"] == merged_metrics(results)

    def test_timings_embedded_in_metrics(self, tmp_path, monkeypatch):
        # One artefact carries the full run record: the timings doc
        # rides inside metrics.json, and no separate timings file is
        # written.
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        run_specs(_quick_specs(n=2), workers=1, metrics_name="metrics_timed")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "metrics_timed.json",
            "metrics_timed.prom",
        ]
        doc = json.loads((tmp_path / "metrics_timed.json").read_text())
        validate_metrics_doc(doc)
        assert set(doc["timings"]) == {
            "workers",
            "run_count",
            "failed_count",
            "cache_build_s",
            "total_wall_time_s",
            "serial_estimate_s",
            "speedup_vs_serial_estimate",
            "runs",
        }
        assert doc["timings"]["run_count"] == 2
        assert doc["timings"]["total_wall_time_s"] > 0

    def test_profile_artefact_written_when_enabled(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_PROFILE", "1")
        run_specs(_quick_specs(n=2), workers=1)
        from repro.obs.profiler import load_profile

        doc = load_profile(tmp_path / "profile.json")
        assert doc["total_calls"] > 0
        assert any(
            "Medium" in row["name"] for row in doc["handlers"]
        )

    def test_no_profile_artefact_by_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        run_specs(_quick_specs(n=1), workers=1)
        assert not (tmp_path / "profile.json").exists()

    def test_heartbeats_written_when_enabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.2")
        run_specs(_quick_specs(n=1), workers=1)
        from repro.obs.records import read_jsonl

        files = list((tmp_path / "telemetry").glob("worker-*.jsonl"))
        assert files
        records = read_jsonl(files[0])
        assert records[-1]["done"] is True
        assert records[-1]["fraction"] == 1.0
        assert records[0]["spec"].startswith("quick:0")

    def test_bad_heartbeat_interval_fails_batch_once(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_HEARTBEAT", "inf")
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT"):
            run_specs(_quick_specs(n=2), workers=1)
        assert not (tmp_path / "telemetry").exists()

    def test_run_summary_carries_snapshot(self):
        result = execute_spec(
            RunSpec(attacker="cityhunter", venue="canteen", seed=3, **_QUICK)
        )
        assert result.metrics is not None
        assert result.metrics["counters"]["run.count"] == 1
        assert any(e["kind"] == "span" for e in result.events)


class TestOneDeploymentPath:
    def test_venue_and_scenario_routes_identical(self):
        """A venue spec and a scenario spec of the same canteen
        deployment return the same summary, breakdowns and metrics."""
        by_venue = RunSpec(
            attacker="cityhunter", venue="canteen", seed=5, duration=300.0
        )
        scenario = venue_config(
            venue_profile("canteen"),
            300.0,
            people_per_min=None,
            seed=5,
            fidelity="frame",
            rush=False,
            group_probs=None,
            pnl_model=None,
            group_model=None,
            faults=None,
        )
        by_scenario = RunSpec(
            attacker="cityhunter", scenario=scenario, seed=5, duration=300.0
        )
        a, b = execute_spec(by_venue), execute_spec(by_scenario)
        assert a.summary.total_clients > 0
        assert a.summary == b.summary
        assert (a.source, a.buffers) == (b.source, b.buffers)
        assert (a.people_spawned, a.duration) == (b.people_spawned, b.duration)
        assert _strip_timers(a.metrics) == _strip_timers(b.metrics)
        assert a.events == b.events


class TestSharedWigleImmutability:
    def test_records_cannot_be_mutated(self):
        ssids, *columns = shared_wigle().free_columns()
        assert isinstance(ssids, tuple)
        for column in columns:
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[-1]

    def test_sequential_runs_from_cache_are_independent(self):
        # Regression: the City-Hunter attacker seeds its own database
        # from the cached WiGLE registry; a first run must not leak
        # learned weights into a second run built from the same cache.
        spec = RunSpec(attacker="cityhunter", venue="canteen", seed=11, **_QUICK)
        first = execute_spec(spec)
        second = execute_spec(spec)
        assert first.summary == second.summary
        assert first.source == second.source
        assert first.buffers == second.buffers
