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

Determinism contract: the tracer only *observes*.  It never draws from
any RNG stream, never schedules events, never touches the metrics
registry or the event sink — so the golden-master digests are
bit-identical with lineage off and on (asserted by the golden tests).

Exports: :func:`write_chrome_trace` renders records as Chrome
trace-event JSON (loadable in Perfetto / ``chrome://tracing``), with
flow arrows along parent links; :func:`hunt_story` reconstructs one
client's full hunt story — the ``repro obs lineage <mac>`` CLI.
"""

from __future__ import annotations

import json
import pathlib
from collections import OrderedDict, deque
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.util.settings import resolve_bool_env, resolve_int_env

LINEAGE_ENV = "REPRO_LINEAGE"
LINEAGE_MAX_ENV = "REPRO_LINEAGE_MAX"

DEFAULT_MAX_RECORDS = 500_000
"""Ring-buffer cap on retained lineage records (oldest evicted)."""

FRAME_MAP_CAP = 65_536
"""Bound on the frame-identity map.  A frame's context is only looked
up between its transmission and its delivery (plus the scan window a
phone holds candidate responses), so the map only needs to cover the
frames currently in flight — 64k is orders of magnitude above any
simulated air."""

TRACE_EVENT_REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")
"""Keys every exported trace event must carry (the schema contract the
tests pin)."""


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


class LineageTrace:
    """Bounded, append-only store of causal lineage records."""

    def __init__(
        self,
        enabled: Optional[bool] = None,
        max_records: Optional[int] = None,
    ):
        if enabled is None:
            enabled = resolve_bool_env(LINEAGE_ENV, False)
        if max_records is None:
            max_records = resolve_int_env(LINEAGE_MAX_ENV, DEFAULT_MAX_RECORDS, 1)
        if max_records < 1:
            raise ValueError("max_records must be >= 1, got %r" % max_records)
        self.enabled = bool(enabled)
        self.max_records = max_records
        self._records: "deque[Dict[str, object]]" = deque(maxlen=max_records)
        self.dropped = 0
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
        if len(self._records) == self.max_records:
            self.dropped += 1
        self._records.append(record)
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

    # -- reading ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> List[Dict[str, object]]:
        """All retained records, oldest first (plain dicts, JSON-safe)."""
        return [dict(r) for r in self._records]


# -- Chrome trace-event export ---------------------------------------------

TRACE_SCHEMA = "repro.lineage/v1"


def chrome_trace_doc(
    records: Iterable[Dict[str, object]],
    pid: int = 1,
    process_name: str = "repro",
) -> dict:
    """Render lineage records as a Chrome trace-event document.

    Every record becomes one complete ("X") event — ``ts`` in
    microseconds of simulated time, one ``tid`` per acting station —
    and every parent link becomes a flow arrow ("s" → "f"), so Perfetto
    draws the probe → burst → response → hit chain as connected arrows
    across the per-station tracks.  The full lineage record rides along
    in ``args`` so the document is also the machine-readable artefact
    the ``repro obs lineage`` CLI reconstructs stories from.
    """
    events: List[dict] = []
    tids: Dict[str, int] = {}
    events.append(
        {
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": process_name},
        }
    )
    by_id: Dict[int, Dict[str, object]] = {}
    records = list(records)
    for rec in records:
        by_id[int(rec["id"])] = rec
    for rec in records:
        actor = str(rec.get("actor", "?"))
        tid = tids.get(actor)
        if tid is None:
            tid = tids[actor] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": actor},
                }
            )
        ts = round(float(rec["time"]) * 1e6)
        name = str(rec["kind"])
        if "ssid" in rec:
            name = f"{name} {rec['ssid']}"
        events.append(
            {
                "ph": "X",
                "ts": ts,
                "dur": 1,
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": str(rec["kind"]),
                "args": {"lineage": rec},
            }
        )
        parent = rec.get("parent")
        if parent is not None and int(parent) in by_id:
            parent_rec = by_id[int(parent)]
            parent_actor = str(parent_rec.get("actor", "?"))
            parent_tid = tids.get(parent_actor)
            if parent_tid is None:
                parent_tid = tids[parent_actor] = len(tids) + 1
                events.append(
                    {
                        "ph": "M",
                        "ts": 0,
                        "pid": pid,
                        "tid": parent_tid,
                        "name": "thread_name",
                        "args": {"name": parent_actor},
                    }
                )
            flow = {
                "ph": "s",
                "ts": round(float(parent_rec["time"]) * 1e6),
                "pid": pid,
                "tid": parent_tid,
                "name": "lineage",
                "cat": "lineage",
                "id": int(rec["id"]),
            }
            events.append(flow)
            events.append(
                {
                    "ph": "f",
                    "bp": "e",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "name": "lineage",
                    "cat": "lineage",
                    "id": int(rec["id"]),
                }
            )
    return {
        "schema": TRACE_SCHEMA,
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(
    records: Iterable[Dict[str, object]],
    path: Union[str, pathlib.Path],
    pid: int = 1,
    process_name: str = "repro",
) -> pathlib.Path:
    """Write :func:`chrome_trace_doc` to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = chrome_trace_doc(records, pid=pid, process_name=process_name)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path


def validate_chrome_trace(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid trace-event file."""
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace document has no traceEvents list")
    for i, event in enumerate(events):
        for key in TRACE_EVENT_REQUIRED_KEYS:
            if key not in event:
                raise ValueError(
                    "traceEvents[%d] missing required key %r" % (i, key)
                )
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError("traceEvents[%d] complete event lacks dur" % i)


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
