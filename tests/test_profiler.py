"""Tests for the per-handler sim profiler (repro.obs.profiler)."""

import json

import pytest

from repro.cli import main
from repro.obs.profiler import (
    PROFILE_SCHEMA,
    SimProfiler,
    load_profile,
    merge_profiles,
    profile_collapsed,
    render_hot_table,
    write_collapsed,
)
from repro.obs.records import write_json
from repro.sim.simulation import Simulation


class TestSimProfiler:
    def test_record_accumulates(self):
        p = SimProfiler()
        p.record("A.f", 0.010, 1.0)
        p.record("A.f", 0.030, 2.0)
        p.record("B.g", 0.005, 0.5)
        assert len(p) == 2
        assert p.total_calls == 3
        assert p.total_wall_s == pytest.approx(0.045)
        rows = p.handlers()
        assert rows[0]["name"] == "A.f"  # hottest first
        assert rows[0]["calls"] == 2
        assert rows[0]["sim_advance_s"] == pytest.approx(3.0)

    def test_to_dict_schema(self):
        p = SimProfiler()
        p.record("A.f", 0.01, 1.0)
        doc = p.to_dict()
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["handlers"][0]["name"] == "A.f"

    def test_collapsed_format(self):
        p = SimProfiler()
        p.record("Medium._deliver", 0.002, 0.0)
        lines = p.collapsed()
        assert lines == ["sim;Medium._deliver 2000"]

    def test_ties_sorted_by_name(self):
        p = SimProfiler()
        p.record("z", 0.01, 0.0)
        p.record("a", 0.01, 0.0)
        assert [r["name"] for r in p.handlers()] == ["a", "z"]


class TestSchedulerIntegration:
    def test_off_by_default(self):
        sim = Simulation(seed=1)
        assert sim.profiler is None

    def test_profile_kwarg_attaches(self, monkeypatch):
        # REPRO_PROFILE is the one switch: the keyword is gone.
        with pytest.raises(TypeError):
            Simulation(seed=1, profile=True)
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert Simulation(seed=1).profiler is not None

    def test_env_flag_attaches(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        assert Simulation(seed=1).profiler is not None
        monkeypatch.setenv("REPRO_PROFILE", "")
        assert Simulation(seed=1).profiler is None

    def test_handlers_credited_by_qualname(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        sim = Simulation(seed=1)

        class Ticker:
            def tick(self):
                pass

        t = Ticker()
        for i in range(5):
            sim.at(float(i + 1), t.tick)
        sim.run(10.0)
        doc = sim.profiler.to_dict()
        names = {r["name"]: r for r in doc["handlers"]}
        row = names[
            "TestSchedulerIntegration.test_handlers_credited_by_qualname."
            "<locals>.Ticker.tick"
        ]
        assert row["calls"] == 5
        # tick events are 1 s apart: the handler owns 5 s of timeline.
        assert row["sim_advance_s"] == pytest.approx(5.0)

    def test_profiled_run_same_results(self, monkeypatch):
        """Profiling observes only: event order and clock identical."""

        def build(profile):
            monkeypatch.setenv("REPRO_PROFILE", "1" if profile else "0")
            sim = Simulation(seed=7)
            assert (sim.profiler is not None) == profile
            rng = sim.rngs.stream("x")
            seen = []
            def emit(tag):
                seen.append((sim.now, tag, float(rng.random())))
                if len(seen) < 20:
                    sim.at(0.5, emit, tag + 1)
            sim.at(0.0, emit, 0)
            sim.run(30.0)
            return seen

        assert build(False) == build(True)


class TestMergeAndRender:
    def _doc(self, name="A.f", calls=2, wall=0.04, sim_s=3.0):
        p = SimProfiler()
        for _ in range(calls):
            p.record(name, wall / calls, sim_s / calls)
        return p.to_dict()

    def test_merge_sums(self):
        merged = merge_profiles([self._doc(), self._doc()])
        assert merged["schema"] == PROFILE_SCHEMA
        row = merged["handlers"][0]
        assert row["calls"] == 4
        assert row["wall_s"] == pytest.approx(0.08)

    def test_merge_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            merge_profiles([{"schema": "nope"}])

    def test_profile_collapsed_matches_live(self):
        doc = self._doc("Medium._deliver", calls=1, wall=0.002)
        assert profile_collapsed(doc) == ["sim;Medium._deliver 2000"]

    def test_render_hot_table(self):
        doc = merge_profiles(
            [self._doc("A.f"), self._doc("B.g", wall=0.01)]
        )
        table = render_hot_table(doc, top=1)
        assert "A.f" in table
        assert "... 1 more" in table
        assert "B.g" not in table

    def test_write_load_roundtrip(self, tmp_path):
        doc = self._doc()
        path = write_json(tmp_path / "profile.json", doc, indent=2)
        assert load_profile(path) == doc

    def test_write_collapsed(self, tmp_path):
        doc = self._doc("X.h", calls=1, wall=0.001)
        path = write_collapsed(doc, tmp_path / "stacks.txt")
        assert path.read_text() == "sim;X.h 1000\n"


class TestCli:
    def _artefact(self, tmp_path):
        p = SimProfiler()
        p.record("Medium._deliver", 0.1, 50.0)
        p.record("Phone._probe_channel", 0.05, 10.0)
        path = tmp_path / "profile.json"
        write_json(path, p.to_dict(), indent=2)
        return path

    def test_profile_table(self, tmp_path, capsys):
        path = self._artefact(tmp_path)
        rc = main(["obs", "profile", "--path", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "hot handlers" in out
        assert "Medium._deliver" in out

    def test_profile_collapsed_output(self, tmp_path, capsys):
        path = self._artefact(tmp_path)
        stacks = tmp_path / "stacks.txt"
        rc = main(
            ["obs", "profile", "--path", str(path), "--collapsed", str(stacks)]
        )
        assert rc == 0
        assert "collapsed stacks written" in capsys.readouterr().out
        lines = stacks.read_text().splitlines()
        assert lines[0].startswith("sim;Medium._deliver ")

    def test_profile_missing_artefact(self, tmp_path, capsys):
        rc = main(["obs", "profile", "--path", str(tmp_path / "nope.json")])
        assert rc == 1
        assert "no profile artefact" in capsys.readouterr().err

    def test_profile_invalid_artefact(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other"}))
        rc = main(["obs", "profile", "--path", str(bad)])
        assert rc == 1
        assert "invalid profile artefact" in capsys.readouterr().err
