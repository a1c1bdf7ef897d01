"""Per-handler simulation profiler.

The scheduler is the single choke point every simulated event passes
through, which makes it the natural place to answer "where does the
wall-clock go?".  When a :class:`SimProfiler` is attached
(``REPRO_PROFILE=1``), the scheduler times each callback with
``perf_counter`` and also credits it with the simulated time the clock
advanced to reach it — so a handler can be hot two different ways:
burning CPU per call, or owning most of the simulated timeline.

Handlers are keyed by the callback's qualified name
(``Phone._probe_channel``, ``Medium._deliver``, ...), which is exactly
the granularity the hot-path work in PR 4 was tuned at.

Output shapes:

* :meth:`SimProfiler.to_dict` — JSON artefact (``repro.profile/v1``)
  the executor writes next to ``metrics.json``;
* :meth:`SimProfiler.collapsed` — collapsed-stack lines
  (``sim;<handler> <microseconds>``) ready for ``flamegraph.pl`` or
  speedscope;
* :func:`render_hot_table` — the ``repro obs profile`` terminal table.

Like the lineage tracer, the profiler only observes: no RNG draws, no
scheduling, no metrics writes — golden digests are unchanged whether it
is on or off.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Union

from repro.util.settings import resolve_bool_env

PROFILE_ENV = "REPRO_PROFILE"

PROFILE_SCHEMA = "repro.profile/v1"


def env_profile_default() -> bool:
    return resolve_bool_env(PROFILE_ENV, False)


class SimProfiler:
    """Accumulates per-handler call counts, wall time and sim time."""

    __slots__ = ("_handlers",)

    def __init__(self):
        # name -> [calls, wall_s, sim_advance_s]
        self._handlers: Dict[str, List[float]] = {}

    def record(self, name: str, wall_s: float, sim_advance_s: float) -> None:
        """Credit one callback invocation (hot path: one dict probe)."""
        cell = self._handlers.get(name)
        if cell is None:
            self._handlers[name] = [1, wall_s, sim_advance_s]
        else:
            cell[0] += 1
            cell[1] += wall_s
            cell[2] += sim_advance_s

    def __len__(self) -> int:
        return len(self._handlers)

    @property
    def total_wall_s(self) -> float:
        return sum(cell[1] for cell in self._handlers.values())

    @property
    def total_calls(self) -> int:
        return int(sum(cell[0] for cell in self._handlers.values()))

    def handlers(self) -> List[dict]:
        """Per-handler rows, hottest (by wall time) first."""
        rows = [
            {
                "name": name,
                "calls": int(cell[0]),
                "wall_s": cell[1],
                "sim_advance_s": cell[2],
            }
            for name, cell in self._handlers.items()
        ]
        rows.sort(key=lambda r: (-r["wall_s"], r["name"]))
        return rows

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "total_calls": self.total_calls,
            "total_wall_s": round(self.total_wall_s, 6),
            "handlers": [
                {
                    "name": r["name"],
                    "calls": r["calls"],
                    "wall_s": round(r["wall_s"], 6),
                    "sim_advance_s": round(r["sim_advance_s"], 6),
                }
                for r in self.handlers()
            ],
        }

    def collapsed(self, root: str = "sim") -> List[str]:
        """Collapsed-stack lines; the value is wall time in microseconds."""
        return [
            "%s;%s %d" % (root, r["name"], round(r["wall_s"] * 1e6))
            for r in self.handlers()
        ]


def merge_profiles(docs: Iterable[dict]) -> dict:
    """Merge ``repro.profile/v1`` documents from several runs into one."""
    merged: Dict[str, List[float]] = {}
    for doc in docs:
        if doc.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                "not a %s document: %r" % (PROFILE_SCHEMA, doc.get("schema"))
            )
        for row in doc.get("handlers", []):
            cell = merged.setdefault(row["name"], [0, 0.0, 0.0])
            cell[0] += row["calls"]
            cell[1] += row["wall_s"]
            cell[2] += row["sim_advance_s"]
    out = SimProfiler()
    for name, cell in merged.items():
        out._handlers[name] = cell
    return out.to_dict()


def profile_collapsed(doc: dict, root: str = "sim") -> List[str]:
    """Collapsed-stack lines from a ``repro.profile/v1`` document."""
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ValueError("not a %s document: %r" % (PROFILE_SCHEMA, doc.get("schema")))
    return [
        "%s;%s %d" % (root, row["name"], round(row["wall_s"] * 1e6))
        for row in doc.get("handlers", [])
    ]


def render_hot_table(doc: dict, top: int = 15) -> str:
    """The ``repro obs profile`` terminal table: hottest handlers first."""
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ValueError("not a %s document: %r" % (PROFILE_SCHEMA, doc.get("schema")))
    handlers = doc.get("handlers", [])
    total_wall = doc.get("total_wall_s") or sum(r["wall_s"] for r in handlers) or 1.0
    lines = [
        "hot handlers (%d total, %.3f s wall, %d calls)"
        % (len(handlers), doc.get("total_wall_s", 0.0), doc.get("total_calls", 0)),
        f"{'handler':<44} {'calls':>9} {'wall s':>9} {'wall %':>7} "
        f"{'us/call':>8} {'sim s':>9}",
    ]
    for row in handlers[:top]:
        per_call_us = row["wall_s"] / row["calls"] * 1e6 if row["calls"] else 0.0
        lines.append(
            f"{row['name']:<44} {row['calls']:>9} {row['wall_s']:>9.4f} "
            f"{row['wall_s'] / total_wall * 100:>6.1f}% "
            f"{per_call_us:>8.1f} {row['sim_advance_s']:>9.1f}"
        )
    if len(handlers) > top:
        rest_wall = sum(r["wall_s"] for r in handlers[top:])
        lines.append(
            f"{'... %d more' % (len(handlers) - top):<44} {'':>9} "
            f"{rest_wall:>9.4f} {rest_wall / total_wall * 100:>6.1f}%"
        )
    return "\n".join(lines)


def load_profile(path: Union[str, pathlib.Path]) -> dict:
    doc = json.loads(pathlib.Path(path).read_text())
    if doc.get("schema") != PROFILE_SCHEMA:
        raise ValueError("not a %s document: %r" % (PROFILE_SCHEMA, doc.get("schema")))
    return doc


def write_collapsed(
    doc: dict, path: Union[str, pathlib.Path], root: str = "sim"
) -> pathlib.Path:
    """Write flamegraph-ready collapsed stacks for a profile document."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(profile_collapsed(doc, root=root)) + "\n")
    return path
