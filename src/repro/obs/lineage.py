"""Causal frame-lineage tracing.

The paper's headline number — broadcast hit rate h_b — is the end of a
causal chain: a phone's broadcast probe is delivered to the attacker,
the attacker selects a burst (each candidate with a PB/FB/ghost bucket
and a provenance), the probe responses fly back, one of them matches the
client's PNL, and the association handshake lands the hit.  The metrics
layer only sees the *totals* of that chain; this module records the
chain itself.

A :class:`LineageTrace` hangs off every
:class:`~repro.sim.simulation.Simulation` (``sim.lineage``), disabled by
default and switched on with ``REPRO_LINEAGE=1`` (or the ``lineage=``
constructor argument).  Instrumented components — the medium, the rogue
APs, the phones — append *records*: small dicts carrying a node id, a
parent id, the root ("trace") id, the simulated time, the acting
station and free-form attributes.  Causality is threaded two ways:

* **frames** — a transmitted frame is registered under its lineage
  context by object identity, so its later delivery (and anything sent
  while handling it) chains to the transmission;
* **the current context** — while the medium hands a frame to a
  receiver it sets :attr:`LineageTrace.current`, so everything the
  receiver emits synchronously (a response burst, a hit record) becomes
  a child of that delivery without the receiver knowing about frames.

The tracer only observes, so golden digests are bit-identical with
lineage off and on (asserted by the golden tests).  Its records live in
a :class:`~repro.obs.records.Ring`; :func:`chrome_trace_doc` puts them
on one track per station with flow arrows along parent links, and
:func:`hunt_story` reconstructs one client's full hunt story — the
``repro obs lineage <mac>`` CLI.
"""

from __future__ import annotations

import json
import pathlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.records import ChromeTrace, Ring, validate_chrome_trace
from repro.util.settings import resolve_bool_env

LINEAGE_ENV = "REPRO_LINEAGE"

DEFAULT_MAX_RECORDS = 500_000
"""Ring-buffer cap on retained lineage records (oldest evicted)."""

FRAME_MAP_CAP = 65_536
"""Bound on the frame-identity map.  A frame's context is only looked
up between its transmission and its delivery (plus the scan window a
phone holds candidate responses), so the map only needs to cover the
frames currently in flight — 64k is orders of magnitude above any
simulated air."""

Ctx = Tuple[int, int]
"""A lineage context: (node id, root trace id)."""


class _Pushed:
    """Context manager swapping :attr:`LineageTrace.current` in and out."""

    __slots__ = ("_ln", "_ctx", "_prev")

    def __init__(self, ln: "LineageTrace", ctx: Optional[Ctx]):
        self._ln = ln
        self._ctx = ctx

    def __enter__(self) -> Optional[Ctx]:
        self._prev = self._ln.current
        self._ln.current = self._ctx
        return self._ctx

    def __exit__(self, *exc) -> None:
        self._ln.current = self._prev


class LineageTrace(Ring):
    """Bounded, append-only store of causal lineage records."""

    def __init__(
        self,
        enabled: Optional[bool] = None,
        max_records: int = DEFAULT_MAX_RECORDS,
    ):
        if enabled is None:
            enabled = resolve_bool_env(LINEAGE_ENV, False)
        super().__init__(max_records, enabled)
        self._next_id = 1
        self.current: Optional[Ctx] = None
        self._frame_ctx: "OrderedDict[int, Ctx]" = OrderedDict()

    # -- recording --------------------------------------------------------

    def _emit(
        self,
        time: float,
        kind: str,
        actor: str,
        parent: Optional[Ctx],
        attrs: Dict[str, object],
    ) -> Ctx:
        node = self._next_id
        self._next_id += 1
        trace = parent[1] if parent is not None else node
        record: Dict[str, object] = {
            "id": node,
            "parent": parent[0] if parent is not None else None,
            "trace": trace,
            "time": time,
            "kind": kind,
            "actor": actor,
        }
        if attrs:
            record.update(attrs)
        self.append(record)
        return (node, trace)

    def event(
        self,
        time: float,
        kind: str,
        actor: str,
        parent: Optional[Ctx] = None,
        **attrs: object,
    ) -> Ctx:
        """Record one causal event; parent defaults to ``current``."""
        if parent is None:
            parent = self.current
        return self._emit(time, kind, actor, parent, attrs)

    def frame_sent(
        self,
        time: float,
        frame: object,
        sender: str,
        parent: Optional[Ctx] = None,
        **attrs: object,
    ) -> Ctx:
        """Record a frame transmission and remember the frame's context.

        The parent defaults to ``current`` — so a response transmitted
        while the sender handles a delivered probe chains under that
        delivery automatically.
        """
        if parent is None:
            parent = self.current
        kind = getattr(frame, "kind", type(frame).__name__)
        ssid = getattr(frame, "ssid", None)
        if ssid is not None:
            attrs.setdefault("ssid", ssid)
        dst = getattr(frame, "dst", None)
        if dst is not None:
            attrs.setdefault("dst", dst)
        ctx = self._emit(time, f"tx:{kind}", sender, parent, attrs)
        frames = self._frame_ctx
        frames[id(frame)] = ctx
        if len(frames) > FRAME_MAP_CAP:
            frames.popitem(last=False)
        return ctx

    def frame_ctx(self, frame: object) -> Optional[Ctx]:
        """The lineage context a frame was transmitted under, if known."""
        return self._frame_ctx.get(id(frame))

    def delivered(
        self, time: float, frame: object, receiver: str, **attrs: object
    ) -> Ctx:
        """Record one frame delivery, chained to the frame's transmission."""
        kind = getattr(frame, "kind", type(frame).__name__)
        return self._emit(
            time,
            f"rx:{kind}",
            receiver,
            self._frame_ctx.get(id(frame)),
            attrs,
        )

    def push(self, ctx: Optional[Ctx]) -> _Pushed:
        """``with ln.push(ctx): ...`` — scope the current context."""
        return _Pushed(self, ctx)

    def records(self) -> List[Dict[str, object]]:
        """All retained records, oldest first (plain dicts, JSON-safe)."""
        return [dict(r) for r in self._ring]


# -- Chrome trace-event export ---------------------------------------------

TRACE_SCHEMA = "repro.lineage/v1"


def chrome_trace_doc(
    records: Iterable[Dict[str, object]],
    pid: int = 1,
    process_name: str = "repro",
) -> dict:
    """Render lineage records as a Chrome trace-event document.

    Every record becomes one span — ``ts`` in microseconds of simulated
    time, one track per acting station — and every parent link becomes
    a flow arrow, so Perfetto draws the probe → burst → response → hit
    chain as connected arrows across the per-station tracks.  The full
    lineage record rides along in ``args`` so the document is also the
    machine-readable artefact the ``repro obs lineage`` CLI
    reconstructs stories from.
    """
    trace = ChromeTrace(process_name, pid)
    records = list(records)
    by_id = {int(rec["id"]): rec for rec in records}
    for rec in records:
        tid = trace.track(str(rec.get("actor", "?")))
        ts = round(float(rec["time"]) * 1e6)
        kind = str(rec["kind"])
        name = f"{kind} {rec['ssid']}" if "ssid" in rec else kind
        trace.span(tid, ts, 1, name, kind, {"lineage": rec})
        parent = rec.get("parent")
        parent_rec = by_id.get(int(parent)) if parent is not None else None
        if parent_rec is not None:
            src = (
                trace.track(str(parent_rec.get("actor", "?"))),
                round(float(parent_rec["time"]) * 1e6),
            )
            trace.flow("lineage", "lineage", src, (tid, ts), int(rec["id"]))
    return trace.doc(schema=TRACE_SCHEMA)


def load_chrome_trace(path: Union[str, pathlib.Path]) -> List[Dict[str, object]]:
    """Recover the lineage records embedded in an exported trace file."""
    doc = json.loads(pathlib.Path(path).read_text())
    validate_chrome_trace(doc)
    out: List[Dict[str, object]] = []
    for event in doc["traceEvents"]:
        args = event.get("args")
        if isinstance(args, dict) and isinstance(args.get("lineage"), dict):
            out.append(args["lineage"])
    return out


# -- story reconstruction ---------------------------------------------------


def _children_index(
    records: List[Dict[str, object]],
) -> Dict[Optional[int], List[Dict[str, object]]]:
    children: Dict[Optional[int], List[Dict[str, object]]] = {}
    for rec in records:
        parent = rec.get("parent")
        children.setdefault(
            int(parent) if parent is not None else None, []
        ).append(rec)
    for kids in children.values():
        kids.sort(key=lambda r: (float(r["time"]), int(r["id"])))
    return children


def _format_record(rec: Dict[str, object]) -> str:
    skip = {"id", "parent", "trace", "time", "kind", "actor"}
    extras = " ".join(
        f"{k}={rec[k]!r}" for k in sorted(rec) if k not in skip
    )
    line = f"t={float(rec['time']):10.4f}  {rec['kind']:<16} {rec['actor']}"
    return f"{line}  {extras}" if extras else line


def client_traces(
    records: List[Dict[str, object]], mac: str
) -> List[Dict[str, object]]:
    """Root records of every trace that involves client ``mac``.

    A trace involves the client when the client is the actor of any of
    its records or is named by a ``client``/``dst`` attribute — so both
    the phone's own probes and the attacker-side records they caused
    are found.
    """
    involved = set()
    for rec in records:
        if (
            rec.get("actor") == mac
            or rec.get("client") == mac
            or rec.get("dst") == mac
        ):
            involved.add(int(rec["trace"]))
    return [
        rec
        for rec in records
        if int(rec["id"]) == int(rec["trace"]) and int(rec["trace"]) in involved
    ]


def hunt_story(records: List[Dict[str, object]], mac: str) -> str:
    """One client's full hunt story, reconstructed from lineage records.

    Each causal tree rooted at one of the client's probes (or at a frame
    addressed to it) is rendered depth-first with indentation, ending in
    the ``hit``/``connected`` records when the hunt succeeded.
    """
    roots = client_traces(records, mac)
    if not roots:
        return f"no lineage records involve {mac}"
    children = _children_index(records)
    lines: List[str] = [f"hunt story for {mac}: {len(roots)} causal trace(s)"]
    hits = [
        r
        for r in records
        if r.get("kind") == "hit" and r.get("client") == mac
    ]
    for root in sorted(roots, key=lambda r: (float(r["time"]), int(r["id"]))):
        lines.append("")
        stack: List[Tuple[Dict[str, object], int]] = [(root, 0)]
        while stack:
            rec, depth = stack.pop()
            lines.append("  " * depth + _format_record(rec))
            kids = children.get(int(rec["id"]), [])
            for kid in reversed(kids):
                stack.append((kid, depth + 1))
    lines.append("")
    if hits:
        for h in hits:
            lines.append(
                f"HIT at t={float(h['time']):.4f}: {mac} associated to "
                f"{h.get('ssid')!r} (trace {h['trace']})"
            )
    else:
        lines.append(f"no hit recorded for {mac}")
    return "\n".join(lines)
