"""Parameter sweeps over attack deployments.

A declarative grid runner used by the sensitivity benchmarks and handy
for downstream experimentation: vary one or two scenario knobs, run the
deployment per cell, and collect summaries into a renderable grid.

Cells are independent deployments of a registry attacker (e.g.
``"cityhunter"``), so the grid fans out over the parallel executor
(:mod:`repro.experiments.parallel`).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import SessionSummary
from repro.experiments.parallel import RunSpec, run_specs
from repro.experiments.scenarios import ScenarioConfig
from repro.util.tables import render_table


@dataclass
class SweepCell:
    """One grid cell result."""

    params: Dict[str, object]
    summary: SessionSummary

    @property
    def h_b(self) -> float:
        return self.summary.broadcast_hit_rate


@dataclass
class SweepResult:
    """All cells of one sweep, in run order."""

    varied: List[str]
    cells: List[SweepCell] = field(default_factory=list)

    def render(self, title: str = "") -> str:
        rows = []
        for cell in self.cells:
            rows.append(
                [str(cell.params[name]) for name in self.varied]
                + [
                    cell.summary.total_clients,
                    f"{100 * cell.summary.hit_rate:.1f}%",
                    f"{100 * cell.h_b:.1f}%",
                ]
            )
        return render_table(
            self.varied + ["clients", "h", "h_b"], rows, title=title
        )

    def series(self, param: str) -> List[tuple]:
        """(param value, h_b) pairs for plotting."""
        return [(cell.params[param], cell.h_b) for cell in self.cells]


def _grid_configs(
    base_config: ScenarioConfig, grid: Dict[str, Sequence]
) -> List[Dict[str, object]]:
    """The cell parameter dicts, first key varying slowest."""
    names = list(grid)
    for name in names:
        if not hasattr(base_config, name):
            raise ValueError(f"ScenarioConfig has no field {name!r}")
    return [
        dict(zip(names, values))
        for values in itertools.product(*(grid[n] for n in names))
    ]


def sweep(
    attacker: str,
    base_config: ScenarioConfig,
    grid: Dict[str, Sequence],
    workers: Optional[int] = None,
    city_seed: int = 42,
) -> SweepResult:
    """Run the registry attacker ``attacker`` once per grid cell.

    ``grid`` maps :class:`ScenarioConfig` field names to value lists;
    the cartesian product is executed in a deterministic order (first
    key varies slowest).  Each cell gets a fresh scenario built from
    ``base_config`` with the cell's values substituted, and runs through
    the parallel executor against the shared city and registry for
    ``city_seed``.
    """
    cells_params = _grid_configs(base_config, grid)
    specs = []
    for params in cells_params:
        config = dataclasses.replace(base_config, **params)
        specs.append(
            RunSpec(
                attacker=attacker,
                scenario=config,
                seed=config.seed,
                duration=config.duration,
                city_seed=city_seed,
                tag="sweep:" + ",".join(f"{k}={v}" for k, v in params.items()),
            )
        )
    outcomes = run_specs(specs, workers=workers)
    return SweepResult(
        varied=list(grid),
        cells=[
            SweepCell(params=params, summary=outcome.summary)
            for params, outcome in zip(cells_params, outcomes)
        ],
    )
