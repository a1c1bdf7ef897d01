"""Tests for causal frame-lineage tracing (repro.obs.lineage).

Covers the unit mechanics (context threading, the ring cap, the frame
map), the Chrome trace-event export contract (required keys, round
trip), and the end-to-end acceptance path: a real hunt run with lineage
on reconstructs the probe -> burst -> response -> hit chain, and the
``repro obs lineage`` CLI prints it.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.attackers import make_cityhunter
from repro.experiments.calibration import venue_profile
from repro.experiments.runner import run_experiment
from repro.obs import lineage
from repro.obs.lineage import (
    DEFAULT_MAX_RECORDS,
    FRAME_MAP_CAP,
    LineageTrace,
    chrome_trace_doc,
    client_traces,
    hunt_story,
    load_chrome_trace,
)
from repro.obs.records import (
    TRACE_EVENT_REQUIRED_KEYS,
    validate_chrome_trace,
    write_json,
)


class _Frame:
    def __init__(self, kind, ssid=None, dst=None):
        self.kind = kind
        self.ssid = ssid
        self.dst = dst


class TestLineageTrace:
    def test_disabled_by_default(self):
        assert LineageTrace().enabled is False

    def test_root_event_is_its_own_trace(self):
        ln = LineageTrace()
        ctx = ln.event(1.0, "probe", "aa")
        node, trace = ctx
        assert node == trace
        rec = ln.records()[0]
        assert rec["parent"] is None
        assert rec["trace"] == trace

    def test_parent_defaults_to_current(self):
        ln = LineageTrace()
        root = ln.event(1.0, "rx:probe_req", "attacker")
        with ln.push(root):
            child = ln.event(1.0, "burst_select", "attacker")
        after = ln.event(2.0, "other", "attacker")
        recs = {r["id"]: r for r in ln.records()}
        assert recs[child[0]]["parent"] == root[0]
        assert recs[child[0]]["trace"] == root[1]
        # push scope ended: the later event is a new root again.
        assert recs[after[0]]["parent"] is None

    def test_push_nests_and_restores(self):
        ln = LineageTrace()
        a = ln.event(0.0, "a", "x")
        with ln.push(a):
            b = ln.event(0.0, "b", "x")
            with ln.push(b):
                assert ln.current == b
            assert ln.current == a
        assert ln.current is None

    def test_frame_sent_then_delivered_chains(self):
        ln = LineageTrace()
        frame = _Frame("probe_req", ssid=None, dst="ff:ff:ff:ff:ff:ff")
        tx = ln.frame_sent(1.0, frame, "phone")
        rx = ln.delivered(1.001, frame, "attacker")
        recs = {r["id"]: r for r in ln.records()}
        assert recs[rx[0]]["parent"] == tx[0]
        assert recs[rx[0]]["trace"] == tx[1]
        assert recs[tx[0]]["kind"] == "tx:probe_req"
        assert recs[rx[0]]["kind"] == "rx:probe_req"
        assert recs[tx[0]]["dst"] == "ff:ff:ff:ff:ff:ff"

    def test_frame_attrs_auto_extracted(self):
        ln = LineageTrace()
        frame = _Frame("probe_resp", ssid="CoffeeShop")
        tx = ln.frame_sent(2.0, frame, "ap")
        rec = ln.records()[-1]
        assert rec["ssid"] == "CoffeeShop"
        assert tx == ln.frame_ctx(frame)

    def test_unknown_frame_delivery_is_root(self):
        ln = LineageTrace()
        rx = ln.delivered(1.0, _Frame("beacon"), "phone")
        rec = ln.records()[0]
        assert rec["parent"] is None
        assert rec["trace"] == rx[0]

    def test_ring_cap_and_dropped(self, monkeypatch):
        # The capacity is the module constant; shrink it for the test.
        monkeypatch.setattr(lineage, "DEFAULT_MAX_RECORDS", 4)
        ln = LineageTrace()
        for i in range(7):
            ln.event(float(i), "e", "x")
        assert len(ln) == 4
        assert ln.dropped == 3
        # Oldest evicted: the retained records are the last four.
        assert [r["time"] for r in ln.records()] == [3.0, 4.0, 5.0, 6.0]

    def test_bad_cap_rejected(self):
        # The capacity is the module constant: no argument sets it.
        assert LineageTrace().max_records == DEFAULT_MAX_RECORDS
        with pytest.raises(TypeError):
            LineageTrace(max_records=4)

    def test_frame_map_is_bounded(self):
        ln = LineageTrace()
        frames = [_Frame("probe_req") for _ in range(FRAME_MAP_CAP + 10)]
        for f in frames:
            ln.frame_sent(0.0, f, "x")
        assert len(ln._frame_ctx) == FRAME_MAP_CAP
        # The newest frame is still resolvable; the oldest fell out.
        assert ln.frame_ctx(frames[-1]) is not None
        assert ln.frame_ctx(frames[0]) is None


class TestChromeTraceExport:
    def _records(self):
        ln = LineageTrace()
        frame = _Frame("probe_req", dst="ff:ff:ff:ff:ff:ff")
        ln.frame_sent(1.0, frame, "phone")
        rx = ln.delivered(1.001, frame, "attacker")
        with ln.push(rx):
            resp = _Frame("probe_resp", ssid="Net", dst="phone")
            ln.frame_sent(1.002, resp, "attacker")
        return ln.records()

    def test_required_keys_present(self):
        doc = chrome_trace_doc(self._records())
        assert doc["traceEvents"]
        for event in doc["traceEvents"]:
            for key in TRACE_EVENT_REQUIRED_KEYS:
                assert key in event, f"{event} missing {key}"
        validate_chrome_trace(doc)

    def test_complete_events_have_dur(self):
        doc = chrome_trace_doc(self._records())
        for event in doc["traceEvents"]:
            if event["ph"] == "X":
                assert "dur" in event

    def test_flow_arrows_along_parent_links(self):
        doc = chrome_trace_doc(self._records())
        phases = [e["ph"] for e in doc["traceEvents"]]
        # Two parent links (rx<-tx, resp<-rx) -> two s/f pairs.
        assert phases.count("s") == 2
        assert phases.count("f") == 2

    def test_one_tid_per_actor(self):
        doc = chrome_trace_doc(self._records())
        names = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "M" and e["name"] == "thread_name":
                names[e["args"]["name"]] = e["tid"]
        assert set(names) == {"phone", "attacker"}
        assert names["phone"] != names["attacker"]

    def test_timestamps_are_sim_microseconds(self):
        doc = chrome_trace_doc(self._records())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs[0]["ts"] == 1_000_000
        assert xs[1]["ts"] == 1_001_000

    def test_write_load_roundtrip(self, tmp_path):
        records = self._records()
        path = write_json(tmp_path / "t" / "lineage.json", chrome_trace_doc(records))
        assert path.is_file()
        assert load_chrome_trace(path) == records

    def test_validate_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValueError):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "ts": 0, "pid": 1, "tid": 1}]}
            )
        with pytest.raises(ValueError):
            # Complete event without dur.
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {"ph": "X", "ts": 0, "pid": 1, "tid": 1, "name": "x"}
                    ]
                }
            )


class TestStoryReconstruction:
    def _hunt_records(self):
        """A hand-built probe -> burst -> response -> hit chain."""
        ln = LineageTrace()
        probe = _Frame("probe_req", dst="ff:ff:ff:ff:ff:ff")
        ln.frame_sent(1.0, probe, "mac-client")
        rx = ln.delivered(1.01, probe, "mac-ap")
        with ln.push(rx):
            sel = ln.event(
                1.01, "burst_select", "mac-ap", client="mac-client", size=1
            )
            with ln.push(sel):
                resp = _Frame("probe_resp", ssid="Home", dst="mac-client")
                ln.frame_sent(1.02, resp, "mac-ap")
        rx2 = ln.delivered(1.03, resp, "mac-client")
        with ln.push(rx2):
            ln.event(1.04, "hit", "mac-ap", client="mac-client", ssid="Home")
        # Unrelated noise from another client.
        other = _Frame("probe_req")
        ln.frame_sent(5.0, other, "mac-other")
        return ln.records()

    def test_client_traces_finds_involvement(self):
        roots = client_traces(self._hunt_records(), "mac-client")
        assert len(roots) == 1
        assert roots[0]["actor"] == "mac-client"

    def test_story_contains_full_chain(self):
        story = hunt_story(self._hunt_records(), "mac-client")
        for token in (
            "tx:probe_req",
            "rx:probe_req",
            "burst_select",
            "tx:probe_resp",
            "rx:probe_resp",
            "hit",
        ):
            assert token in story
        assert "HIT at t=1.0400" in story
        assert "mac-other" not in story

    def test_story_for_unknown_mac(self):
        story = hunt_story(self._hunt_records(), "mac-nobody")
        assert "no lineage records involve" in story

    def test_story_without_hit(self):
        ln = LineageTrace()
        ln.frame_sent(1.0, _Frame("probe_req"), "mac-x")
        story = hunt_story(ln.records(), "mac-x")
        assert "no hit recorded" in story


@pytest.fixture(scope="module")
def lineage_records(city, wigle, tmp_path_factory):
    """One real cityhunter run with lineage on, exported to disk.

    run_experiment builds its own Simulation, so the env var is the
    switch — scoped to the fixture body and popped afterwards.
    """
    import os

    os.environ["REPRO_LINEAGE"] = "1"
    try:
        result = run_experiment(
            city,
            wigle,
            make_cityhunter(wigle, city.heatmap),
            venue_profile("canteen"),
            duration=200.0,
            seed=5,
        )
    finally:
        os.environ.pop("REPRO_LINEAGE", None)
    lineage = result.attacker.sim.lineage
    assert lineage.enabled
    path = tmp_path_factory.mktemp("lineage") / "lineage.json"
    write_json(path, chrome_trace_doc(lineage.records()))
    return result, path


class TestEndToEnd:
    def test_exported_trace_validates(self, lineage_records):
        _, path = lineage_records
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)

    def test_hit_chain_reconstructed(self, lineage_records):
        """A hit client's story must contain the full causal chain the
        paper describes: broadcast probe -> delivery -> burst selection
        -> probe response -> association -> hit."""
        result, path = lineage_records
        records = load_chrome_trace(path)
        hit_macs = [
            mac
            for mac, client in result.session.clients.items()
            if client.connected
        ]
        assert hit_macs, "scenario produced no hits — cannot test lineage"
        mac = sorted(hit_macs)[0]
        story = hunt_story(records, mac)
        for token in (
            "tx:probe_req",
            "rx:probe_req",
            "burst_select",
            "tx:probe_resp",
            "rx:probe_resp",
            "tx:assoc_req",
            "hit",
            "HIT at t=",
        ):
            assert token in story, f"story for {mac} lacks {token}"

    def test_burst_select_records_candidates(self, lineage_records):
        _, path = lineage_records
        records = load_chrome_trace(path)
        selects = [r for r in records if r["kind"] == "burst_select"]
        assert selects
        sample = selects[0]
        assert sample["size"] == len(sample["candidates"])
        for cand in sample["candidates"]:
            assert {"ssid", "bucket", "origin"} <= set(cand)

    def test_cli_prints_story(self, lineage_records, capsys):
        result, path = lineage_records
        mac = sorted(
            m for m, c in result.session.clients.items() if c.connected
        )[0]
        rc = main(["obs", "lineage", mac, "--trace", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"hunt story for {mac}" in out
        assert "HIT at t=" in out

    def test_run_cli_exports_trace(self, tmp_path, capsys):
        out = tmp_path / "lineage.json"
        rc = main(
            ["run", "--attacker", "karma", "--venue", "canteen",
             "--duration", "60", "--seed", "3", "--lineage-out", str(out)]
        )
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "lineage records" in stdout
        doc = json.loads(out.read_text())
        validate_chrome_trace(doc)
        assert load_chrome_trace(out)

    def test_cli_missing_trace(self, tmp_path, capsys):
        rc = main(
            ["obs", "lineage", "aa:bb:cc:dd:ee:ff", "--trace",
             str(tmp_path / "nope.json")]
        )
        assert rc == 1
        assert "no lineage trace" in capsys.readouterr().err
