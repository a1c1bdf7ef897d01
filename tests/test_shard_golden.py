"""Golden shard-count invariance against the committed fixture.

``tests/data/golden_shards.*`` pins the canonical metrics document of
the sharded golden batch (:func:`repro.experiments.golden.golden_shard_specs`)
run serially at one shard.  These tests assert the live tree reproduces
it at shards 1, 2 and 4 and at executor width 4 — the same contract the
CI ``shard-smoke`` job drives through the CLI.  On mismatch the failure
message is a per-section diff, not two hashes; regenerate with
``python tests/regen_golden.py`` if the change was intentional.
"""

import json
import os
import pathlib

import pytest

from repro.experiments.golden import golden_shard_specs, run_golden_shards
from repro.obs.golden import diff_metrics_docs, metrics_digest
from repro.obs.registry import validate_metrics_doc
from repro.sim.shards import (
    CKPT_EVERY_ENV,
    SHARD_MODE_ENV,
    SHARDS_ENV,
)

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
DOC_PATH = DATA_DIR / "golden_shards.json"
DIGEST_PATH = DATA_DIR / "golden_shards.digest"

_SCOPED_ENV = (
    "REPRO_ARTIFACT_DIR",
    "REPRO_WORKERS",
    "REPRO_EPOCH_TRACE",
    "REPRO_HEARTBEAT",
    SHARDS_ENV,
    SHARD_MODE_ENV,
    CKPT_EVERY_ENV,
)


@pytest.fixture(scope="module")
def shard_golden_env(tmp_path_factory):
    saved = {k: os.environ.get(k) for k in _SCOPED_ENV}
    os.environ["REPRO_ARTIFACT_DIR"] = str(tmp_path_factory.mktemp("shard-golden"))
    for key in _SCOPED_ENV[1:]:
        os.environ.pop(key, None)
    yield
    for key, value in saved.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


@pytest.fixture(scope="module")
def serial_doc(shard_golden_env):
    """The sharded golden batch, serial, one shard."""
    return run_golden_shards(workers=1, shards=1)


def fixture_doc() -> dict:
    return json.loads(DOC_PATH.read_text())


def fixture_digest() -> str:
    return DIGEST_PATH.read_text().strip()


def _assert_same(reference: dict, candidate: dict, context: str) -> None:
    if metrics_digest(reference) == metrics_digest(candidate):
        return
    diff = diff_metrics_docs(reference, candidate)
    pytest.fail(f"shard metrics drift ({context}):\n{diff}")


class TestFixtureIntegrity:
    def test_fixture_files_exist(self):
        assert DOC_PATH.is_file() and DIGEST_PATH.is_file()

    def test_digest_matches_committed_doc(self):
        assert metrics_digest(fixture_doc()) == fixture_digest()

    def test_fixture_covers_every_shard_spec(self):
        doc = fixture_doc()
        specs = golden_shard_specs()
        assert doc["run_count"] == len(specs)
        assert [run["tag"] for run in doc["runs"]] == [s.tag for s in specs]
        assert not any(run.get("failed") for run in doc["runs"])

    def test_canonical_form_has_no_shardops_keys(self):
        """shardops.* is shard-count-dependent by design, so the golden
        canonical form must not contain a single key of it."""
        doc = fixture_doc()
        sections = [doc["merged"]] + [run["metrics"] for run in doc["runs"]]
        for snap in sections:
            for section in ("counters", "gauges", "histograms", "series"):
                keys = snap.get(section, {})
                assert not [k for k in keys if k.startswith("shardops.")]

    def test_fixture_has_shard_workload(self):
        counters = fixture_doc()["merged"]["counters"]
        assert counters.get("shardsim.hits", 0) > 0
        assert counters.get("shardsim.scans", 0) > 0


class TestShardCountInvariance:
    def test_one_shard_matches_fixture(self, serial_doc):
        validate_metrics_doc(serial_doc)
        _assert_same(
            fixture_doc(),
            serial_doc,
            "live tree vs committed fixture — regenerate with "
            "tests/regen_golden.py if this change is intentional",
        )
        assert metrics_digest(serial_doc) == fixture_digest()

    @pytest.mark.parametrize("shards", [2, 4])
    def test_shard_count_invariance(self, serial_doc, shards):
        doc = run_golden_shards(workers=1, shards=shards)
        _assert_same(serial_doc, doc, f"shards=1 vs shards={shards}")
        assert metrics_digest(doc) == fixture_digest()

    def test_worker_width_invariance(self, serial_doc):
        doc = run_golden_shards(workers=4, shards=2)
        assert doc["workers"] == 4
        _assert_same(serial_doc, doc, "workers=1 vs workers=4 (shards=2)")
        assert metrics_digest(doc) == fixture_digest()

    def test_epoch_trace_on_invariance(self, serial_doc):
        """The shard ops plane is observation-only: with per-epoch
        barrier tracing and heartbeats both on, every metric of the
        sharded golden batch must stay bit-identical — no extra RNG
        draws, no extra scheduled events, no metric writes (mirror of
        test_golden_master's test_lineage_on_invariance)."""
        os.environ["REPRO_EPOCH_TRACE"] = "1"
        os.environ["REPRO_HEARTBEAT"] = "0.2"
        try:
            traced_doc = run_golden_shards(workers=1, shards=2)
        finally:
            os.environ.pop("REPRO_EPOCH_TRACE", None)
            os.environ.pop("REPRO_HEARTBEAT", None)
        _assert_same(
            serial_doc, traced_doc,
            "epoch trace off vs REPRO_EPOCH_TRACE=1 (shards=2)",
        )
        assert metrics_digest(traced_doc) == fixture_digest()
        telemetry = (
            pathlib.Path(os.environ["REPRO_ARTIFACT_DIR"]) / "telemetry"
        )
        spans = sorted(telemetry.glob("epochs-*.jsonl"))
        assert len(spans) == 2, spans

    def test_checkpoint_on_invariance(self, serial_doc):
        """Epoch-barrier checkpointing is observation-only: with
        ``REPRO_SHARD_CKPT_EVERY`` set, every metric of the sharded
        golden batch must stay bit-identical to the checkpoint-free
        fixture — state is captured before any checkpoint accounting,
        so the sim steps the same either way."""
        os.environ[CKPT_EVERY_ENV] = "7"
        try:
            ckpt_doc = run_golden_shards(workers=1, shards=2)
        finally:
            os.environ.pop(CKPT_EVERY_ENV, None)
        _assert_same(
            serial_doc, ckpt_doc,
            "checkpointing off vs %s=7 (shards=2)" % CKPT_EVERY_ENV,
        )
        assert metrics_digest(ckpt_doc) == fixture_digest()
        ckpt_dir = (
            pathlib.Path(os.environ["REPRO_ARTIFACT_DIR"]) / "checkpoints"
        )
        assert (ckpt_dir / "manifest.json").is_file()


class TestChaosNeedsTwoShards:
    """A one-shard run is stepped inline, where the golden crash has no
    recovery: ``--chaos`` below two shards must refuse to run rather than
    turn every spec into a failed run and report a digest mismatch."""

    def test_run_golden_shards_rejects_one_shard(self, shard_golden_env):
        with pytest.raises(ValueError, match="got 1"):
            run_golden_shards(workers=1, shards=1, chaos=True)

    def test_cli_exits_2_naming_the_shard_count(self, shard_golden_env, capsys):
        from repro.cli import main

        code = main(["shards", "golden", "--workers", "1", "--chaos",
                     "--check", str(DIGEST_PATH)])
        err = capsys.readouterr().err
        assert code == 2
        assert "2 or more shards, got 1" in err
        assert "MISMATCH" not in err
