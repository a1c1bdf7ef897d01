"""Tests for the sweep utility and paper-target validation."""

import pytest

from repro.analysis.validation import PaperTarget, all_pass, check_all, targets
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.sweeps import sweep


class TestSweep:
    @pytest.fixture(scope="class")
    def result(self):
        base = ScenarioConfig(
            venue_name="Central Subway Passage",
            mobility="corridor",
            people_per_min=20.0,
            duration=180.0,
            seed=3,
            fidelity="burst",
        )
        return sweep(
            "mana",
            base,
            grid={"people_per_min": [10.0, 40.0], "walk_speed_mean": [0.8, 2.0]},
            workers=1,
        )

    def test_full_grid_executed(self, result):
        assert len(result.cells) == 4
        params = [
            (c.params["people_per_min"], c.params["walk_speed_mean"])
            for c in result.cells
        ]
        assert params == [(10.0, 0.8), (10.0, 2.0), (40.0, 0.8), (40.0, 2.0)]

    def test_density_reflected_in_clients(self, result):
        sparse = result.cells[0].summary.total_clients
        dense = result.cells[2].summary.total_clients
        assert dense > 2 * sparse

    def test_render_and_series(self, result):
        out = result.render(title="grid")
        assert "people_per_min" in out and "h_b" in out
        series = result.series("people_per_min")
        assert len(series) == 4

    def test_unknown_field_rejected(self):
        base = ScenarioConfig(
            venue_name="University Canteen",
            mobility="static",
            people_per_min=5.0,
            duration=60.0,
        )
        with pytest.raises(ValueError):
            sweep("mana", base, grid={"warp_factor": [9]})


class TestValidation:
    def test_registry_complete(self):
        reg = targets()
        assert "adv.passage.h_b" in reg
        assert len(reg) >= 10
        for target in reg.values():
            assert target.low <= target.high
            # The paper's own value must sit inside the accepted band
            # (except KARMA's exact zero, which is the band).
            assert target.low <= target.paper_value <= target.high

    def test_check_and_report(self):
        target = PaperTarget("x", "demo", 0.1, 0.05, 0.2, "nowhere")
        assert target.check(0.1)
        assert not target.check(0.3)
        assert "OK" in target.report(0.1)
        assert "OUT" in target.report(0.3)

    def test_check_all(self):
        lines = check_all({"adv.passage.h_b": 0.12, "karma.h_b": 0.0})
        assert len(lines) == 2
        assert all("OK" in line for line in lines)

    def test_all_pass(self):
        assert all_pass({"adv.passage.h_b": 0.12})
        assert not all_pass({"adv.passage.h_b": 0.5})

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            check_all({"nonsense": 1.0})
