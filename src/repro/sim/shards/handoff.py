"""The deterministic cross-shard handoff protocol's record format.

All cross-shard effects travel as plain tuples exchanged at epoch
barriers::

    (kind, time, district, walker, sensor, payload)

* ``"m"`` migrate — a walker's ownership moves; payload is its
  :data:`~repro.sim.shards.soa.DynamicRow`.
* ``"p"`` probe — a walker's scan reached a sensor; no payload.
* ``"o"`` offer — a sensor's SSID burst answering a probe; payload is
  the burst tuple.
* ``"f"`` feedback — a walker joined an offered SSID; payload is the
  winning SSID.

Every field in the sort key is a *workload* coordinate — sim time, the
fixed district grid, walker id, sensor id — never a shard id or
arrival order, so the processing order of any record batch is
identical at every shard count.  That invariance is the whole protocol:
receivers sort, then apply; ties are impossible because two records of
the same kind at the same time differ in walker or sensor id.

Robustness: records cross process boundaries and survive in
checkpoint files, so the module also carries the *readers* — schema
validation (:func:`validate_record` / :func:`validate_batch`, raising
:class:`CorruptHandoffError` on torn, mangled or duplicated records).
A received outbox and a checkpoint's pending inboxes are validated
before use; a corrupt batch is *detected*, never applied: the engine
turns the error into a shard crash and recovers from the last
consistent barrier.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

MIGRATE = "m"
PROBE = "p"
OFFER = "o"
FEEDBACK = "f"

#: Sensor field of records that have no sensor (migrations).
NO_SENSOR = -1

Record = Tuple  # (kind, time, district, walker, sensor, *payload)


def migrate(time: float, district: int, walker: int, row) -> Record:
    """Ownership transfer carrying the walker's dynamic state."""
    return (MIGRATE, time, district, walker, NO_SENSOR, row)


def probe(time: float, district: int, walker: int, sensor: int) -> Record:
    """A walker's active scan heard by ``sensor``."""
    return (PROBE, time, district, walker, sensor)


def offer(
    time: float, district: int, walker: int, sensor: int, burst: Tuple[int, ...]
) -> Record:
    """A sensor's SSID burst answering a probe."""
    return (OFFER, time, district, walker, sensor, burst)


def feedback(time: float, district: int, walker: int, sensor: int, ssid: int) -> Record:
    """A walker joined ``ssid`` offered by ``sensor``."""
    return (FEEDBACK, time, district, walker, sensor, ssid)


def sort_key(record: Record) -> Tuple[float, int, int, int]:
    """(time, district, walker, sensor) — strictly shard-count-invariant."""
    return (record[1], record[2], record[3], record[4])


def sorted_records(records: Iterable[Record]) -> List[Record]:
    """Records in canonical processing order."""
    return sorted(records, key=sort_key)


def applied_key(record: Record) -> Tuple[str, float, int, int, int]:
    """Compact identity of an applied record, for the handoff log."""
    return (record[0], record[1], record[2], record[3], record[4])


# -- validation --------------------------------------------------------------


class CorruptHandoffError(ValueError):
    """A handoff record or batch failed schema/CRC validation."""


#: Total tuple arity per record kind (header fields + payload).
_ARITY = {MIGRATE: 6, PROBE: 5, OFFER: 6, FEEDBACK: 6}

#: Length of a migrate payload (:data:`~repro.sim.shards.soa.DynamicRow`).
_ROW_LEN = 7


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_record(record) -> Record:
    """Schema-check one record; raises :class:`CorruptHandoffError`.

    Checks the kind tag, the tuple arity, the header field types and
    the payload shape — everything a truncated or bit-mangled record
    trips over.  Value-level corruption *within* a well-typed field is
    out of scope here (checkpoint files add a CRC for that)."""
    if not isinstance(record, tuple):
        raise CorruptHandoffError(
            "record is %s, not a tuple: %r" % (type(record).__name__, record)
        )
    if not record or record[0] not in _ARITY:
        raise CorruptHandoffError("unknown record kind: %r" % (record[:1],))
    kind = record[0]
    if len(record) != _ARITY[kind]:
        raise CorruptHandoffError(
            "truncated %r record: %d fields, expected %d: %r"
            % (kind, len(record), _ARITY[kind], record)
        )
    if not isinstance(record[1], (int, float)) or isinstance(record[1], bool):
        raise CorruptHandoffError("non-numeric time field: %r" % (record,))
    for idx, name in ((2, "district"), (3, "walker"), (4, "sensor")):
        if not _is_int(record[idx]):
            raise CorruptHandoffError(
                "non-integer %s field: %r" % (name, record)
            )
    if kind == MIGRATE:
        row = record[5]
        if not isinstance(row, tuple) or len(row) != _ROW_LEN:
            raise CorruptHandoffError("bad migrate payload row: %r" % (record,))
    elif kind == OFFER:
        burst = record[5]
        if not isinstance(burst, tuple) or not all(_is_int(s) for s in burst):
            raise CorruptHandoffError("bad offer burst: %r" % (record,))
    elif kind == FEEDBACK:
        if not _is_int(record[5]):
            raise CorruptHandoffError("bad feedback ssid: %r" % (record,))
    return record


def validate_batch(records: Iterable[Record]) -> List[Record]:
    """Validate every record of a batch and reject duplicates.

    Two records sharing an :func:`applied_key` cannot occur in a
    healthy run (each record is emitted exactly once by exactly one
    owner), so a duplicate means a replayed or corrupted exchange."""
    seen = set()
    out: List[Record] = []
    for record in records:
        validate_record(record)
        key = applied_key(record)
        if key in seen:
            raise CorruptHandoffError("duplicate record: %r" % (record,))
        seen.add(key)
        out.append(record)
    return out


def validate_outbox(outbox) -> None:
    """Validate one phase outbox (dest shard -> record list)."""
    for dest, records in outbox.items():
        if not _is_int(dest) or dest < 0:
            raise CorruptHandoffError("bad destination shard: %r" % (dest,))
        validate_batch(records)
