"""Golden-master equivalence tests.

The committed fixture (``tests/data/golden_metrics.*``) pins the exact
merged metrics of the canonical batch.  These tests assert the live
tree still reproduces it — serially, at worker count 4, and with
lineage tracing on — so the parallel merge is locked to bit-identical
behaviour and tracing is locked to observing only.

On mismatch the assertion message is a per-section diff (via
:func:`repro.obs.golden.diff_metrics_docs`), not two hashes; if the
change was intentional, regenerate with ``python tests/regen_golden.py``
and commit the new fixture alongside it.
"""

import json
import os
import pathlib

import pytest

from repro.experiments.golden import golden_specs, run_golden
from repro.obs.lineage import LINEAGE_ENV
from repro.obs.golden import (
    canonical_metrics_doc,
    diff_metrics_docs,
    metrics_digest,
)
from repro.obs.registry import validate_metrics_doc

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
DOC_PATH = DATA_DIR / "golden_metrics.json"
DIGEST_PATH = DATA_DIR / "golden_metrics.digest"

_SCOPED_ENV = (
    "REPRO_ARTIFACT_DIR",
    "REPRO_WORKERS",
    LINEAGE_ENV,
)


@pytest.fixture(scope="module")
def golden_env(tmp_path_factory):
    """Module-scoped artefact isolation: batch artefacts go to a tmp
    dir and no ambient worker or lineage override leaks into the runs."""
    saved = {k: os.environ.get(k) for k in _SCOPED_ENV}
    os.environ["REPRO_ARTIFACT_DIR"] = str(tmp_path_factory.mktemp("golden"))
    os.environ.pop("REPRO_WORKERS", None)
    os.environ.pop(LINEAGE_ENV, None)
    yield
    for key, value in saved.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


@pytest.fixture(scope="module")
def serial_doc(golden_env):
    """The canonical batch, serial — shared across tests."""
    return run_golden(workers=1)


def fixture_doc() -> dict:
    return json.loads(DOC_PATH.read_text())


def fixture_digest() -> str:
    return DIGEST_PATH.read_text().strip()


def _assert_same(reference: dict, candidate: dict, context: str) -> None:
    if metrics_digest(reference) == metrics_digest(candidate):
        return
    diff = diff_metrics_docs(reference, candidate)
    pytest.fail(f"metrics drift ({context}):\n{diff}")


class TestFixtureIntegrity:
    def test_fixture_files_exist(self):
        assert DOC_PATH.is_file() and DIGEST_PATH.is_file()

    def test_digest_matches_committed_doc(self):
        """The two fixture files must agree with each other."""
        assert metrics_digest(fixture_doc()) == fixture_digest()

    def test_fixture_covers_every_golden_spec(self):
        doc = fixture_doc()
        assert doc["run_count"] == len(golden_specs())
        tags = [run["tag"] for run in doc["runs"]]
        assert tags == [spec.tag for spec in golden_specs()]
        assert not any(run.get("failed") for run in doc["runs"])

    def test_canonical_form_strips_nondeterminism(self):
        doc = fixture_doc()
        assert "workers" not in doc
        assert "timers" not in doc["merged"]
        for run in doc["runs"]:
            assert "timers" not in run["metrics"]


class TestGoldenEquivalence:
    def test_serial_run_matches_fixture(self, serial_doc):
        validate_metrics_doc(serial_doc)
        _assert_same(
            fixture_doc(),
            serial_doc,
            "live tree vs committed fixture — regenerate with "
            "tests/regen_golden.py if this change is intentional",
        )
        assert metrics_digest(serial_doc) == fixture_digest()

    def test_worker_count_invariance(self, serial_doc):
        parallel_doc = run_golden(workers=4)
        assert parallel_doc["workers"] == 4
        _assert_same(serial_doc, parallel_doc, "workers=1 vs workers=4")

    def test_lineage_on_invariance(self, serial_doc):
        """Causal lineage tracing is observation-only: with REPRO_LINEAGE
        on, every metric of the golden batch must stay bit-identical —
        no extra RNG draws, no extra scheduled events, no metric writes."""
        os.environ[LINEAGE_ENV] = "1"
        try:
            lineage_doc = run_golden(workers=1)
        finally:
            os.environ.pop(LINEAGE_ENV, None)
        _assert_same(
            serial_doc, lineage_doc, "lineage off vs REPRO_LINEAGE=1"
        )
        assert metrics_digest(lineage_doc) == fixture_digest()


class TestDiffRendering:
    def test_identical_docs_diff_empty(self):
        doc = fixture_doc()
        assert diff_metrics_docs(doc, doc) == ""

    def test_counter_drift_is_named(self):
        old = fixture_doc()
        new = json.loads(json.dumps(old))
        counters = new["merged"]["counters"]
        key = sorted(counters)[0]
        counters[key] += 1
        diff = diff_metrics_docs(old, new)
        assert key in diff
        assert "merged.counters" in diff

    def test_run_count_drift_is_named(self):
        old = fixture_doc()
        new = json.loads(json.dumps(old))
        new["runs"] = new["runs"][:-1]
        new["run_count"] -= 1
        diff = diff_metrics_docs(old, new)
        assert "run_count" in diff

    def test_diff_is_bounded(self):
        old = fixture_doc()
        new = json.loads(json.dumps(old))
        for key in new["merged"]["counters"]:
            new["merged"]["counters"][key] += 1
        diff = diff_metrics_docs(old, new, limit=5)
        assert len(diff.splitlines()) <= 6
        assert "truncated" in diff

    def test_canonicalisation_ignores_timers_and_workers(self):
        old = fixture_doc()
        new = json.loads(json.dumps(old))
        new["workers"] = 64
        new["merged"]["timers"] = {"x": {"count": 1, "total_s": 9.9}}
        assert diff_metrics_docs(old, new) == ""
        assert metrics_digest(new) == metrics_digest(old)
        assert canonical_metrics_doc(new) == canonical_metrics_doc(old)
