"""Span tracing for the benchmark's traced run, installed from outside.

Every hook is named by module and attribute and resolved when the tracer
is installed, so the program needs no tracing code of its own.  A hook
whose target no longer exists is listed in ``Tracer.missing`` and the
layer metrics that depend on it read zero; the untraced run never
imports this module.

Each wrapped call pushes a frame on one stack.  When it returns, its
duration is charged to the frame below as child time, so a call's self
time is its duration minus the time its traced children covered.  Spans
of one scheduled event, or of one served probe, share a trace id.
Calls marked ``agg`` are hot leaves (about 1.4M mobility lookups in a
canteen hour): they keep per-name totals instead of one record each.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

SPAN = "span"
AGG = "agg"

MAX_SPANS = 100_000
"""Spans kept in memory for the trace file; totals never drop calls."""

LAYER_BY_MODULE = (
    ("repro.sim.shards", "shards"),
    ("repro.sim", "sim"),
    ("repro.dot11", "dot11"),
    ("repro.devices", "devices"),
    ("repro.mobility", "mobility"),
    ("repro.population", "population"),
    ("repro.attacks", "attacks"),
    ("repro.core", "core"),
    ("repro.analysis", "analysis"),
    ("repro.experiments", "experiments"),
    ("repro.serve", "serve"),
    ("repro.obs", "obs"),
)

# (module, attribute, layer, kind).  Method hooks replace the class
# attribute; function hooks replace every module-level reference to the
# function inside the ``repro`` package (callers bind it by name).
HOOKS = (
    ("repro.sim.scheduler", "Scheduler.run_until", "sim", SPAN),
    ("repro.devices.phone", "Phone.receive", "devices", AGG),
    ("repro.devices.phone", "Phone.receive_burst", "devices", AGG),
    ("repro.attacks.base", "RogueAp.receive", "attacks", AGG),
    ("repro.mobility.base", "PathMobility.position_at", "mobility", AGG),
    ("repro.dot11.medium", "Medium.transmit", "dot11", AGG),
    ("repro.dot11.medium", "Medium.transmit_response_burst", "dot11", AGG),
    ("repro.core.selection", "select_for_client", "core", SPAN),
    ("repro.core.ssid_database", "WeightedSsidDatabase.record_hit", "core", AGG),
    ("repro.core.adaptive", "AdaptiveSplit.on_hit", "core", AGG),
    ("repro.population.synthesis", "PersonFactory.make_group", "population", SPAN),
    ("repro.analysis.session", "AttackSession.observe_probe", "analysis", AGG),
    ("repro.analysis.session", "AttackSession.record_sent", "analysis", AGG),
    ("repro.analysis.session", "AttackSession.record_mimic", "analysis", AGG),
    ("repro.analysis.session", "AttackSession.record_hit", "analysis", AGG),
    ("repro.analysis.session", "AttackSession.record_db_size", "analysis", AGG),
    ("repro.sim.shards.shard", "ShardRuntime.run_phase_a", "shards", SPAN),
    ("repro.sim.shards.shard", "ShardRuntime.run_phase_b", "shards", SPAN),
    ("repro.serve.core", "RankingCore.handle", "serve", SPAN),
    ("repro.obs.registry", "MetricsRegistry.inc", "obs", AGG),
    ("repro.obs.registry", "MetricsRegistry.inc_key", "obs", AGG),
    ("repro.obs.registry", "MetricsRegistry.gauge_set", "obs", AGG),
    ("repro.obs.registry", "MetricsRegistry.gauge_max", "obs", AGG),
    ("repro.obs.registry", "MetricsRegistry.observe", "obs", AGG),
    ("repro.obs.registry", "MetricsRegistry.series_append", "obs", AGG),
    ("repro.obs.registry", "MetricsRegistry.timer_add", "obs", AGG),
    ("repro.obs.events", "EventSink.emit", "obs", AGG),
)
SCHEDULE_HOOK = ("repro.sim.scheduler", "Scheduler.schedule_at")
SUBMIT_HOOK = ("repro.serve.service", "RankingService.submit")
MEDIUM_INIT_HOOK = ("repro.dot11.medium", "Medium.__init__")


def layer_of_module(module: str) -> str:
    for prefix, layer in LAYER_BY_MODULE:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _resolve(module_name: str, attr: str):
    """(owner, name, original) for ``module:attr``, or None if missing."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    name = parts[-1]
    if isinstance(owner, type):
        original = owner.__dict__.get(name)
    else:
        original = getattr(owner, name, None)
    if original is None or not callable(original):
        return None
    return owner, name, original


class Tracer:
    """Stack-based span recorder with per-name call totals."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self.totals: Dict[str, list] = {}
        self.layer: Dict[str, str] = {}
        self.counts: Dict[str, float] = {}
        self.missing: List[str] = []
        self.shard_busy: Dict[int, float] = {}
        self.queue_wait_s: List[float] = []
        self.root_s = 0.0
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._media: list = []
        self._event_trace: Dict[int, Tuple[int, float]] = {}
        self._callbacks: Dict[Tuple[str, str], Tuple[str, list]] = {}

    # -- recording ---------------------------------------------------------

    def _total(self, name: str, layer: str) -> list:
        acc = self.totals.get(name)
        if acc is None:
            acc = self.totals[name] = [0, 0.0, 0.0]
            self.layer[name] = layer
        return acc

    def _count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _keep(self, sid, parent, trace, name, t0, t1) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, parent, trace, name, t0, t1))
        else:
            self.spans_dropped += 1

    def _call(self, fn, args, kwargs, name, acc, keep, trace=None,
              on_exit=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        if keep:
            self._next_id += 1
            sid = self._next_id
            if trace is None:
                trace = parent[2] if parent is not None else sid
            frame = [0.0, sid, trace]
        else:
            frame = [0.0, parent[1], parent[2]] if parent is not None else [0.0, 0, 0]
        stack.append(frame)
        t0 = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - frame[0]
            if parent is not None:
                parent[0] += dur
            else:
                self.root_s += dur
            if keep:
                self._keep(frame[1], parent[1] if parent is not None else 0,
                           frame[2], name, t0, t1)
            if on_exit is not None:
                on_exit(args, result, dur)

    def _run_event(self, fn, *args):
        """Trampoline every scheduled callback runs through."""
        module = getattr(fn, "__module__", None) or "?"
        qual = getattr(fn, "__qualname__", None) or type(fn).__name__
        entry = self._callbacks.get((module, qual))
        if entry is None:
            name = "event:%s.%s" % (module, qual)
            entry = (name, self._total(name, layer_of_module(module)))
            self._callbacks[(module, qual)] = entry
        self._next_id += 1
        return self._call(fn, args, {}, entry[0], entry[1], True,
                          trace=self._next_id)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name, original, replacement) -> None:
        if isinstance(owner, type):
            setattr(owner, name, replacement)
            self._patches.append((owner, name, original))
            return
        # A module-level function: rebind every reference in the package.
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def _on_exit_for(self, key: str) -> Optional[Callable]:
        count = self._count
        if key == "Scheduler.run_until":
            return lambda args, result, dur: count("sim.events", result or 0)
        if key == "Phone.receive":
            def phone_rx(args, result, dur):
                if type(args[1]).__name__ == "ProbeRequest":
                    count("dot11.ignored")
            return phone_rx
        if key == "RogueAp.receive":
            def rogue_rx(args, result, dur):
                if type(args[1]).__name__ == "ProbeRequest":
                    count("attacks.probes")
            return rogue_rx
        if key == "select_for_client":
            def selected(args, result, dur):
                if not result:
                    count("core.empty")
            return selected
        if key == "PersonFactory.make_group":
            return lambda args, result, dur: count(
                "population.people", len(result or ()))
        if key.startswith("ShardRuntime.run_phase_"):
            def phase(args, result, dur):
                shard = getattr(args[0], "shard_id", 0)
                self.shard_busy[shard] = self.shard_busy.get(shard, 0.0) + dur
                if isinstance(result, dict):
                    count("shards.records",
                          sum(len(v) for v in result.values()))
            return phase
        return None

    def install(self) -> "Tracer":
        """Wrap every hook that resolves; record the ones that do not."""
        for module, attr, layer, kind in HOOKS:
            found = _resolve(module, attr)
            if found is None:
                self.missing.append("%s:%s" % (module, attr))
                continue
            owner, name, original = found
            key = attr
            acc = self._total(key, layer)
            keep = kind == SPAN
            on_exit = self._on_exit_for(key)
            wrapper = self._sync_wrapper(original, key, acc, keep, on_exit)
            self._patch(owner, name, original, wrapper)
        self._install_schedule()
        self._install_submit()
        self._install_medium_init()
        return self

    def _sync_wrapper(self, original, key, acc, keep, on_exit):
        call = self._call
        if key == "RankingCore.handle":
            event_trace = self._event_trace
            waits = self.queue_wait_s

            def handle(*args, **kwargs):
                entry = event_trace.pop(id(args[1]), None)
                trace = None
                if entry is not None:
                    trace = entry[0]
                    waits.append(time.perf_counter() - entry[1])
                return call(original, args, kwargs, key, acc, True,
                            trace=trace)
            return handle

        def wrapper(*args, **kwargs):
            return call(original, args, kwargs, key, acc, keep,
                        on_exit=on_exit)
        return wrapper

    def _install_schedule(self) -> None:
        found = _resolve(*SCHEDULE_HOOK)
        if found is None:
            self.missing.append("%s:%s" % SCHEDULE_HOOK)
            return
        owner, name, original = found
        run_event = self._run_event

        def schedule_at(sched, when, fn, *args):
            return original(sched, when, run_event, fn, *args)
        self._patch(owner, name, original, schedule_at)

    def _install_submit(self) -> None:
        found = _resolve(*SUBMIT_HOOK)
        if found is None:
            self.missing.append("%s:%s" % SUBMIT_HOOK)
            return
        owner, name, original = found
        key = "RankingService.submit"
        acc = self._total(key, "serve")
        tracer = self

        async def submit(service, event, *args, **kwargs):
            # Not on the frame stack: while it waits for queue space the
            # workers run, and their root spans are subtracted instead.
            tracer._next_id += 1
            sid = tracer._next_id
            t0 = time.perf_counter()
            tracer._event_trace[id(event)] = (sid, t0)
            root0 = tracer.root_s
            try:
                return await original(service, event, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dur = t1 - t0
                acc[0] += 1
                acc[1] += dur
                acc[2] += max(0.0, dur - (tracer.root_s - root0))
                tracer._keep(sid, 0, sid, key, t0, t1)
        self._patch(owner, name, original, submit)

    def _install_medium_init(self) -> None:
        found = _resolve(*MEDIUM_INIT_HOOK)
        if found is None:
            self.missing.append("%s:%s" % MEDIUM_INIT_HOOK)
            return
        owner, name, original = found
        tracer = self

        def init(medium, *args, **kwargs):
            # Runs are serial, so a new medium means the previous run is
            # over: harvest it now rather than keep its simulation alive.
            tracer.harvest_media()
            original(medium, *args, **kwargs)
            tracer._media.append(medium)
        self._patch(owner, name, original, init)

    def harvest_media(self) -> None:
        """Fold the public delivery counters of every captured medium."""
        for medium in self._media:
            self._count("dot11.deliveries",
                        getattr(medium, "frames_delivered", 0))
            self._count("dot11.candidates",
                        getattr(medium, "index_candidates", 0))
        self._media = []

    def uninstall(self) -> None:
        self.harvest_media()
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []
        self._event_trace.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def calls(self, key: str) -> int:
        acc = self.totals.get(key)
        return acc[0] if acc else 0

    def inclusive_s(self, key: str) -> float:
        acc = self.totals.get(key)
        return acc[1] if acc else 0.0

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, acc in self.totals.items():
            layer = self.layer[name]
            out[layer] = out.get(layer, 0.0) + acc[2]
        return out

    def layer_calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for name, acc in self.totals.items():
            layer = self.layer[name]
            out[layer] = out.get(layer, 0) + acc[0]
        return out

    def callback_calls(self, suffix: str) -> int:
        return sum(
            acc[0] for name, acc in self.totals.items()
            if name.startswith("event:") and name.endswith(suffix)
        )

    def shard_imbalance(self) -> float:
        busy = list(self.shard_busy.values())
        if not busy:
            return 0.0
        mid = statistics.median(busy)
        return max(busy) / mid if mid > 0 else 0.0

    def write(self, path) -> None:
        """Spans as JSON lines, then one line of per-name totals."""
        with open(path, "w") as fh:
            for sid, parent, trace, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "trace": trace,
                    "name": name, "start": t0, "end": t1,
                }) + "\n")
            fh.write(json.dumps({
                "totals": {
                    name: {"layer": self.layer[name], "calls": acc[0],
                           "total_s": acc[1], "self_s": acc[2]}
                    for name, acc in sorted(self.totals.items())
                },
                "spans_dropped": self.spans_dropped,
                "missing": self.missing,
            }) + "\n")
