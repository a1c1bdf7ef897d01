"""Tests for executor fault tolerance (retry, placeholders, resume).

The contract under test: worker death retries the same spec (same
derived seed, so a survivor is bit-identical to a crash-free run),
irrecoverable specs become FailedRun placeholders instead of aborting
the batch, and a checkpointed batch resumes without re-executing
completed runs.
"""

import json

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    FailedRun,
    RunCheckpoint,
    RunSpec,
    RunSummary,
    execute_spec,
    resolve_backoff,
    resolve_checkpoint_name,
    resolve_retries,
    resolve_spec_timeout,
    run_specs,
    spec_digest,
)
from repro.faults.chaos import InjectedWorkerCrash, maybe_crash
from repro.faults.plan import FaultPlan
from repro.obs.registry import validate_metrics_doc

_QUICK = dict(duration=150.0, fidelity="burst")
_FAST = dict(retry_backoff=0.01)


def _spec(seed=7, tag="t", **overrides):
    kwargs = dict(
        attacker="cityhunter", venue="canteen", seed=seed, tag=tag, **_QUICK
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


def _strip_timers(snapshot):
    return {k: v for k, v in snapshot.items() if k != "timers"}


@pytest.fixture(autouse=True)
def _artifact_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
    return tmp_path


class TestChaosHook:
    def test_inline_crash_raises(self):
        with pytest.raises(InjectedWorkerCrash):
            maybe_crash(FaultPlan(worker_crashes=1), attempt=0)

    def test_exhausted_schedule_is_silent(self):
        maybe_crash(FaultPlan(worker_crashes=1), attempt=1)
        maybe_crash(FaultPlan(), attempt=0)
        maybe_crash(None, attempt=0)


class TestSpecDigest:
    def test_stable_for_equal_specs(self):
        assert spec_digest(_spec()) == spec_digest(_spec())

    def test_any_field_change_invalidates(self):
        base = _spec()
        assert spec_digest(base) != spec_digest(_spec(seed=8))
        assert spec_digest(base) != spec_digest(
            _spec(faults=FaultPlan(seed=1))
        )


class TestEmptyBatchGuard:
    def test_returns_early_without_artifacts(self, _artifact_dir):
        assert run_specs([]) == []
        assert list(_artifact_dir.iterdir()) == []


class TestSerialResilience:
    def test_crash_retry_is_bit_identical(self):
        clean = run_specs([_spec()], workers=1)[0]
        crashed = run_specs(
            [_spec(faults=FaultPlan(worker_crashes=1))], workers=1, **_FAST
        )[0]
        assert isinstance(crashed, RunSummary)
        assert crashed.summary == clean.summary
        assert crashed.source == clean.source
        assert crashed.events == clean.events
        assert _strip_timers(crashed.metrics) == _strip_timers(clean.metrics)

    def test_unrecoverable_crash_becomes_placeholder(self):
        out = run_specs(
            [_spec(faults=FaultPlan(worker_crashes=5))],
            workers=1, retries=1, **_FAST,
        )
        assert len(out) == 1
        failed = out[0]
        assert isinstance(failed, FailedRun)
        assert failed.failed
        assert failed.kind == "worker-crash"
        assert failed.attempts == 2  # first try + one retry

    def test_exception_fails_fast_without_retry(self):
        # venue validity is only checked inside the worker; a
        # deterministic exception must not burn the retry budget.
        out = run_specs(
            [RunSpec(attacker="karma", venue="atlantis", tag="x", **_QUICK)],
            workers=1, **_FAST,
        )
        assert out[0].kind == "exception"
        assert out[0].attempts == 1
        assert "atlantis" in out[0].error

    def test_batch_survives_mixed_failure(self):
        specs = [
            _spec(tag="ok"),
            RunSpec(attacker="karma", venue="atlantis", tag="bad", **_QUICK),
            _spec(seed=9, tag="ok2"),
        ]
        out = run_specs(specs, workers=1, **_FAST)
        assert [r.failed for r in out] == [False, True, False]
        clean = run_specs([specs[0], specs[2]], workers=1)
        assert out[0].summary == clean[0].summary
        assert out[2].summary == clean[1].summary


class TestPooledResilience:
    def test_worker_crash_retry_is_bit_identical(self):
        specs = [
            _spec(tag="a"),
            _spec(seed=9, tag="b", faults=FaultPlan(seed=1, worker_crashes=1)),
        ]
        clean = run_specs([_spec(tag="a"), _spec(seed=9, tag="b")], workers=2)
        out = run_specs(specs, workers=2, **_FAST)
        assert [type(r) for r in out] == [RunSummary, RunSummary]
        for survivor, reference in zip(out, clean):
            assert survivor.summary == reference.summary
            assert survivor.events == reference.events
            assert _strip_timers(survivor.metrics) == _strip_timers(
                reference.metrics
            )

    def test_repeated_crashes_fail_only_the_culprit(self):
        specs = [
            _spec(tag="ok"),
            _spec(seed=9, tag="doomed", faults=FaultPlan(worker_crashes=99)),
        ]
        out = run_specs(specs, workers=2, retries=1, **_FAST)
        assert not out[0].failed
        assert out[1].failed
        assert out[1].kind == "worker-crash"

    def test_timeout_becomes_placeholder(self):
        out = run_specs(
            [_spec(tag="slow"), _spec(seed=9, tag="slow2")],
            workers=2, spec_timeout=0.001, retries=0, **_FAST,
        )
        assert all(r.failed for r in out)
        assert {r.kind for r in out} <= {"timeout", "worker-crash"}
        assert any(r.kind == "timeout" for r in out)


class TestFailedRunArtifacts:
    def test_artifacts_keep_slots_and_validate(self, _artifact_dir):
        specs = [
            _spec(tag="ok"),
            RunSpec(attacker="karma", venue="atlantis", tag="bad", **_QUICK),
        ]
        run_specs(specs, workers=1, **_FAST)
        metrics = json.loads((_artifact_dir / "metrics.json").read_text())
        validate_metrics_doc(metrics)
        assert [r.get("failed", False) for r in metrics["runs"]] == [
            False, True,
        ]
        assert metrics["runs"][1]["failure_kind"] == "exception"
        timings = metrics["timings"]
        assert timings["failed_count"] == 1
        assert timings["run_count"] == 2
        assert "wall_time_s" not in timings["runs"][1]
        assert timings["cache_build_s"] >= 0.0


class TestCheckpointResume:
    def test_round_trip_is_bit_identical(self, _artifact_dir, monkeypatch):
        specs = [_spec(tag="a"), _spec(seed=9, tag="b")]
        first = run_specs(specs, workers=1, checkpoint_name="ck")
        assert (_artifact_dir / "ck.jsonl").exists()

        def _boom(spec):
            raise AssertionError("resume must not re-execute %s" % spec.tag)

        monkeypatch.setattr(parallel, "execute_spec", _boom)
        second = run_specs(specs, workers=1, checkpoint_name="ck")
        assert first == second  # spec, summary, metrics, events, walls

    def test_partial_checkpoint_runs_only_the_missing(self, monkeypatch):
        specs = [_spec(tag="a"), _spec(seed=9, tag="b")]
        run_specs([specs[0]], workers=1, checkpoint_name="ck")
        executed = []
        real = execute_spec

        def _counting(spec):
            executed.append(spec.tag)
            return real(spec)

        monkeypatch.setattr(parallel, "execute_spec", _counting)
        out = run_specs(specs, workers=1, checkpoint_name="ck")
        assert executed == ["b"]
        assert [r.spec.tag for r in out] == ["a", "b"]

    def test_failed_runs_are_not_checkpointed(self, monkeypatch):
        bad = RunSpec(attacker="karma", venue="atlantis", tag="bad", **_QUICK)
        run_specs([bad], workers=1, checkpoint_name="ck", **_FAST)
        executed = []
        real = execute_spec

        def _counting(spec):
            executed.append(spec.tag)
            return real(spec)

        monkeypatch.setattr(parallel, "execute_spec", _counting)
        out = run_specs([bad], workers=1, checkpoint_name="ck", **_FAST)
        assert executed == ["bad"]  # re-attempted, not restored
        assert out[0].failed

    def test_spec_change_invalidates_entry(self, monkeypatch):
        run_specs([_spec(tag="a")], workers=1, checkpoint_name="ck")
        executed = []
        real = execute_spec

        def _counting(spec):
            executed.append(spec.seed)
            return real(spec)

        monkeypatch.setattr(parallel, "execute_spec", _counting)
        run_specs([_spec(tag="a", seed=8)], workers=1, checkpoint_name="ck")
        assert executed == [8]

    def test_truncated_line_is_skipped(self, _artifact_dir):
        specs = [_spec(tag="a"), _spec(seed=9, tag="b")]
        run_specs(specs, workers=1, checkpoint_name="ck")
        path = _artifact_dir / "ck.jsonl"
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        ck = RunCheckpoint(path)
        assert len(ck) == 1  # the intact record survives

    def test_crash_then_resume_round_trip(self, monkeypatch):
        # The chaos-smoke scenario end-to-end: a crashing batch with a
        # checkpoint, then a clean re-invocation restoring every run.
        specs = [
            _spec(tag="a", faults=FaultPlan(worker_crashes=1)),
            _spec(seed=9, tag="b"),
        ]
        first = run_specs(specs, workers=1, checkpoint_name="ck", **_FAST)
        assert all(isinstance(r, RunSummary) for r in first)

        def _boom(spec):
            raise AssertionError("must resume from checkpoint")

        monkeypatch.setattr(parallel, "execute_spec", _boom)
        second = run_specs(specs, workers=1, checkpoint_name="ck")
        assert first == second


class TestEnvResolution:
    def test_retries(self):
        # No variable overrides the budget: the argument, else 2.
        assert resolve_retries() == parallel.DEFAULT_RETRIES == 2
        assert resolve_retries(5) == 5
        assert resolve_retries(0) == 0
        with pytest.raises(ValueError, match="retries"):
            resolve_retries(-1)

    def test_backoff(self):
        assert resolve_backoff() == parallel.DEFAULT_BACKOFF_S == 0.5
        assert resolve_backoff(2.5) == 2.5
        with pytest.raises(ValueError):
            resolve_backoff(-1.0)

    def test_spec_timeout(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPEC_TIMEOUT_S", raising=False)
        assert resolve_spec_timeout() is None
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT_S", "0")
        assert resolve_spec_timeout() is None
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT_S", "12.5")
        assert resolve_spec_timeout() == 12.5
        assert resolve_spec_timeout(3.0) == 3.0

    def test_checkpoint_name(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
        assert resolve_checkpoint_name() is None
        monkeypatch.setenv("REPRO_CHECKPOINT", "0")
        assert resolve_checkpoint_name() is None
        monkeypatch.setenv("REPRO_CHECKPOINT", "1")
        assert resolve_checkpoint_name() == "checkpoint"
        monkeypatch.setenv("REPRO_CHECKPOINT", "my-batch")
        assert resolve_checkpoint_name() == "my-batch"
        assert resolve_checkpoint_name("explicit") == "explicit"
