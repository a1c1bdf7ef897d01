"""Sensitivity of City-Hunter to crowd density and mobility.

The paper's framing ("public places with different crowd density ...
and different mobility pattern") as a controlled sweep: broadcast hit
rate vs arrival rate (density) and vs walking speed (mobility) at the
subway passage.  Expectations: h_b rises mildly with density (a richer
direct-probe stream feeds the database and groups feed the freshness
buffer) and falls with walking speed (fewer scans in radio range).

Both sweeps run through the declarative grid runner, whose cells fan
out over the parallel executor (``REPRO_WORKERS``).
"""

from _shared import emit

from repro.experiments.calibration import venue_profile
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.sweeps import sweep
from repro.util.tables import render_table

SEED = 7
DURATION = 1500.0


def _passage_base(**overrides):
    profile = venue_profile("passage")
    return ScenarioConfig(
        venue_name=profile.venue_name,
        mobility="corridor",
        people_per_min=profile.people_per_min_30min_test,
        duration=DURATION,
        seed=SEED,
        fidelity="burst",
        **overrides,
    )


def _sweep_passage(grid):
    return sweep("cityhunter", _passage_base(), grid)


def test_sensitivity_crowd_density(benchmark):
    def run():
        return _sweep_passage({"people_per_min": [10.0, 25.0, 50.0, 100.0]})

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "sensitivity_density",
        render_table(
            ["arrivals (people/min)", "clients", "h_b"],
            [
                [f"{cell.params['people_per_min']:.0f}",
                 cell.summary.total_clients,
                 f"{100 * cell.h_b:.1f}%"]
                for cell in result.cells
            ],
            title="Sensitivity: crowd density at the passage",
        ),
    )
    rates = [cell.h_b for cell in result.cells]
    # Denser crowds never hurt, and the densest beats the sparsest.
    assert rates[-1] > rates[0] - 0.02
    assert all(r > 0.05 for r in rates)


def test_sensitivity_walking_speed(benchmark):
    def run():
        return _sweep_passage({"walk_speed_mean": [0.7, 1.3, 2.2]})

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "sensitivity_speed",
        render_table(
            ["walk speed (m/s)", "clients", "h_b"],
            [
                [f"{cell.params['walk_speed_mean']:.1f}",
                 cell.summary.total_clients,
                 f"{100 * cell.h_b:.1f}%"]
                for cell in result.cells
            ],
            title="Sensitivity: walking speed at the passage",
        ),
    )
    rates = [cell.h_b for cell in result.cells]
    # Slower crowds are easier prey: strictly more scans in range.
    assert rates[0] > rates[-1]
