"""Send records stay out of the cyclic collector's way.

The attacker builds one ``(ssid, origin, bucket)`` record per SSID it
sends, and the session keeps one ``(origin, bucket, position)`` record
per SSID and client for the whole run.  Both are exact tuples of strings
and ints, which CPython stops tracking at the first collection that sees
them, so a long send history adds nothing to later full collections.  A
record class (a dataclass or a ``NamedTuple``) stays tracked; these
tests fail if one comes back.
"""

import gc

import pytest

from repro.experiments.attackers import make_attacker
from repro.experiments.calibration import venue_profile
from repro.experiments.runner import run_experiment
from repro.serve.record import record_probe_stream
from repro.serve.service import run_stream


def _collect():
    """Two full collections.  The first untracks every record, and the
    second a decision's tuple of records, in whatever order the
    collector met them in the first."""
    gc.collect()
    gc.collect()


def _assert_provenance_untracked(session):
    records = [p for c in session._provenance.values() for p in c.values()]
    assert records
    for prov in records:
        assert type(prov) is tuple
        assert not gc.is_tracked(prov), prov


def _assert_decisions_untracked(decisions):
    assert {d.kind for d in decisions} == {"burst", "mimic"}
    for decision in decisions:
        assert not gc.is_tracked(decision.ssids), decision
        for sent in decision.ssids:
            assert type(sent) is tuple
            assert not gc.is_tracked(sent), sent


@pytest.fixture(scope="module")
def recording(city, wigle):
    return record_probe_stream(
        city, wigle, venue="canteen", duration=240.0, seed=5, fidelity="burst"
    )


def test_served_stream_leaves_no_tracked_record(recording, city, wigle):
    core = recording.seeded_core(wigle, city)
    service = run_stream(core, recording.events)
    _collect()
    _assert_decisions_untracked(service.decisions)
    _assert_provenance_untracked(core.session)


def test_recorded_sim_leaves_no_tracked_record(recording):
    _collect()
    _assert_decisions_untracked(recording.decisions)
    _assert_provenance_untracked(recording.result.session)


@pytest.mark.parametrize("attacker", ["cityhunter", "mana", "cityhunter-basic"])
def test_sim_session_leaves_no_tracked_record(attacker, city, wigle):
    result = run_experiment(
        city,
        wigle,
        make_attacker(attacker, city, wigle),
        venue_profile("canteen"),
        duration=180.0,
        seed=3,
    )
    _collect()
    assert result.session.records()
    _assert_provenance_untracked(result.session)
