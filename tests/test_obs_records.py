"""Parity of the shared record substrate (repro.obs.records).

Every recorder now keeps, writes, reads and exports its records through
one module.  These tests hold that change to the artefacts it must not
move: ``tests/data/obs_parity.json`` was produced by the per-recorder
exporters and readers that the substrate replaced, run on the same
inputs as here.

* Chrome export: each adapter's document, as parsed JSON, hashes to
  what the earlier exporter produced — for the lineage records of a
  short canteen run (whose own digest is pinned too, so the ring cannot
  change what is recorded) and for the synthetic epoch records and
  request spans of ``test_epochs.py`` and ``test_reqtrace.py``.  The
  two epoch digests are the earlier exporter's document with the
  ``out_bytes`` argument, which epoch records no longer carry, removed
  from every phase span.
* Reading: on one file with a torn last line, a blank line and foreign
  records, each reader returns exactly what the reader it replaces
  returned.
"""

import hashlib
import json
import os
import pathlib

import pytest

from repro.experiments.attackers import make_cityhunter
from repro.experiments.calibration import venue_profile
from repro.experiments.parallel import RunCheckpoint
from repro.experiments.runner import run_experiment
from repro.obs.epochs import epoch_trace_doc, read_epoch_records
from repro.obs.lineage import chrome_trace_doc
from repro.obs.records import read_jsonl
from repro.obs.reqtrace import read_reqtrace_records, req_trace_doc
from repro.obs.telemetry import read_ops_events

from .test_epochs import _synthetic_records
from .test_reqtrace import spans

DATA = pathlib.Path(__file__).parent / "data"
PARITY = json.loads((DATA / "obs_parity.json").read_text())
TORN = DATA / "torn_records.jsonl"


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestChromeParity:
    @pytest.fixture(scope="class")
    def lineage_records(self, city, wigle):
        os.environ["REPRO_LINEAGE"] = "1"
        try:
            result = run_experiment(
                city,
                wigle,
                make_cityhunter(wigle, city.heatmap),
                venue_profile("canteen"),
                duration=60.0,
                seed=5,
            )
        finally:
            os.environ.pop("REPRO_LINEAGE", None)
        return result.attacker.sim.lineage.records()

    def test_lineage_records_unchanged(self, lineage_records):
        assert len(lineage_records) == PARITY["chrome"]["lineage_records"]
        assert digest(lineage_records) == PARITY["chrome"]["lineage_records_digest"]

    def test_lineage_doc(self, lineage_records):
        doc = chrome_trace_doc(lineage_records)
        assert digest(doc) == PARITY["chrome"]["lineage"]

    @pytest.mark.parametrize(
        "key,kwargs", [("epochs", {}), ("epochs_3x5", {"shards": 3, "epochs": 5})]
    )
    def test_epoch_doc(self, key, kwargs):
        doc = epoch_trace_doc(_synthetic_records(**kwargs))
        assert digest(doc) == PARITY["chrome"][key]

    @pytest.mark.parametrize("key,n_seq", [("reqtrace", 4), ("reqtrace_9", 9)])
    def test_req_doc(self, key, n_seq):
        assert digest(req_trace_doc(spans(n_seq=n_seq))) == PARITY["chrome"][key]


@pytest.mark.parametrize(
    "replaced,read",
    [
        ("read_heartbeats", read_jsonl),
        ("read_ops_events", read_ops_events),
        ("read_epoch_records", read_epoch_records),
        ("read_reqtrace_records", read_reqtrace_records),
        ("RunCheckpoint", lambda path: RunCheckpoint(path)._done),
    ],
)
def test_reader_parity(replaced, read):
    assert read(TORN) == PARITY["readers"][replaced]
