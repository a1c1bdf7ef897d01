"""Handoff robustness: corrupt records are detected, never applied.

Handoff records cross process boundaries and, as a barrier's pending
inboxes, sit in checkpoint files, so the checkpoint frame
(:func:`~repro.sim.shards.checkpoint.write_blob` /
:func:`~repro.sim.shards.checkpoint.read_blob`) and the schema
validator are crash-safety surfaces.  A pending inbox is read back the
way recovery reads it: ``validate_batch(read_blob(path))``.
Properties:

* a written inbox round-trips any well-formed record batch bit-exactly
  (hypothesis when installed, a seeded sweep otherwise);
* every corruption mode we inject in chaos runs — truncated files,
  bit flips anywhere in the frame, duplicated records, torn or
  mangled tuples — raises :class:`CheckpointError` or
  :class:`CorruptHandoffError` instead of yielding a
  plausible-but-wrong batch.
"""

import pathlib
import tempfile

import pytest

from repro.sim.shards.checkpoint import CheckpointError, read_blob, write_blob
from repro.sim.shards.handoff import (
    CorruptHandoffError,
    feedback,
    migrate,
    offer,
    probe,
    sorted_records,
    validate_batch,
    validate_outbox,
    validate_record,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without dev extras
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed"
)

ROW = (1.0, 2.0, 0.5, -0.25, 3.0, 1.5, 0.0)


def _write(directory, payload) -> pathlib.Path:
    path = pathlib.Path(directory) / "pending-epoch-1.bin"
    write_blob(path, payload)
    return path


def _read(path):
    """Read an inbox back the way recovery does."""
    return validate_batch(read_blob(path))


def _roundtrip(records):
    with tempfile.TemporaryDirectory() as tmp:
        return _read(_write(tmp, list(records)))


def _sample_batch(seed: int):
    """A deterministic mixed batch with unique applied keys."""
    base = seed * 10
    return sorted_records(
        [
            migrate(float(base + 1), 2, base + 10, ROW),
            probe(float(base + 2), 1, base + 11, 3),
            offer(float(base + 3), 0, base + 12, 4, (7, 8, 9)),
            feedback(float(base + 4), 3, base + 13, 5, 42),
        ]
    )


if HAVE_HYPOTHESIS:
    _times = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    _ids = st.integers(min_value=0, max_value=10_000)
    _rows = st.tuples(*([st.floats(allow_nan=False, allow_infinity=False)] * 7))
    _bursts = st.tuples(_ids, _ids, _ids)

    _records = st.one_of(
        st.builds(migrate, _times, _ids, _ids, _rows),
        st.builds(probe, _times, _ids, _ids, _ids),
        st.builds(offer, _times, _ids, _ids, _ids, _bursts),
        st.builds(feedback, _times, _ids, _ids, _ids, _ids),
    )

    @needs_hypothesis
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_records, max_size=24, unique_by=lambda r: r[:5]))
    def test_roundtrip_property(records):
        assert _roundtrip(records) == list(records)

    @needs_hypothesis
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(_records, min_size=1, max_size=8, unique_by=lambda r: r[:5]),
        st.data(),
    )
    def test_any_bit_flip_is_detected(records, data):
        """Flipping any single bit of the frame either raises or still
        decodes to the original batch; it never yields a *different*
        batch."""
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, list(records))
            flipped = bytearray(path.read_bytes())
            pos = data.draw(st.integers(min_value=0, max_value=len(flipped) - 1))
            flipped[pos] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
            path.write_bytes(bytes(flipped))
            try:
                decoded = _read(path)
            except (CheckpointError, CorruptHandoffError):
                return
        assert decoded == list(records)


def test_roundtrip_seeded_sweep():
    for seed in range(8):
        batch = _sample_batch(seed)
        assert _roundtrip(batch) == batch
    assert _roundtrip([]) == []


class TestBlobCorruption:
    def test_truncated_blob(self, tmp_path):
        path = _write(tmp_path, _sample_batch(1))
        blob = path.read_bytes()
        for cut in (0, 3, 7, len(blob) // 2, len(blob) - 1):
            path.write_bytes(blob[:cut])
            with pytest.raises(CheckpointError):
                _read(path)

    def test_bad_magic(self, tmp_path):
        path = _write(tmp_path, _sample_batch(1))
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(CheckpointError, match="magic"):
            _read(path)

    def test_crc_mismatch_on_body_flip(self, tmp_path):
        path = _write(tmp_path, _sample_batch(1))
        blob = bytearray(path.read_bytes())
        blob[10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            _read(path)

    def test_non_list_payload_rejected(self, tmp_path):
        path = _write(tmp_path, {"not": "a list"})
        with pytest.raises(CorruptHandoffError, match="not a tuple"):
            _read(path)

    def test_duplicate_record_rejected(self, tmp_path):
        rec = probe(1.0, 0, 5, 2)
        with pytest.raises(CorruptHandoffError, match="duplicate"):
            _read(_write(tmp_path, [rec, rec]))


class TestRecordValidation:
    def test_good_records_pass(self):
        for rec in _sample_batch(0):
            assert validate_record(rec) is rec

    @pytest.mark.parametrize(
        "bad",
        [
            "not-a-tuple",
            (),
            ("x", 1.0, 0, 1, 2),  # unknown kind
            ("p", 1.0, 0, 1),  # truncated
            ("p", 1.0, 0, 1, 2, 3),  # over-long
            ("p", "soon", 0, 1, 2),  # non-numeric time
            ("p", True, 0, 1, 2),  # bool masquerading as time
            ("p", 1.0, 0.5, 1, 2),  # non-int district
            ("m", 1.0, 0, 1, -1, "row"),  # bad migrate payload
            ("m", 1.0, 0, 1, -1, ROW[:3]),  # torn migrate row
            ("o", 1.0, 0, 1, 2, [7, 8]),  # burst must be a tuple
            ("o", 1.0, 0, 1, 2, (7, "8")),  # non-int ssid in burst
            ("f", 1.0, 0, 1, 2, "ssid"),  # non-int feedback ssid
        ],
    )
    def test_bad_records_rejected(self, bad):
        with pytest.raises(CorruptHandoffError):
            validate_record(bad)

    def test_batch_duplicate_detection(self):
        batch = _sample_batch(2)
        with pytest.raises(CorruptHandoffError, match="duplicate"):
            validate_batch(batch + batch[:1])

    def test_outbox_bad_destination(self):
        with pytest.raises(CorruptHandoffError, match="destination"):
            validate_outbox({-1: []})
        with pytest.raises(CorruptHandoffError, match="destination"):
            validate_outbox({"0": []})

    def test_outbox_good(self):
        validate_outbox({0: _sample_batch(0), 3: _sample_batch(1)})
