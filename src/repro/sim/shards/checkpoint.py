"""Epoch-barrier checkpoints for the district-sharded engine.

Layout, under ``<artifact dir>/checkpoints/``::

    shard-<k>-epoch-<e>.bin   one CRC-framed blob per shard
    pending-epoch-<e>.bin     the coordinator's buffered inboxes
    manifest.json             the last *globally consistent* barrier

A barrier at epoch ``e`` is consistent when every shard has finished
phase B of epoch ``e - 1`` (``epochs_done == e``) and the coordinator
holds the migrations and buffered offers due for delivery at phase A of
``e``.  The manifest is written last, atomically, *after* every blob of
its barrier — so a crash mid-checkpoint leaves the previous manifest
(and therefore the previous consistent barrier) intact.

Checkpointing is off unless ``REPRO_SHARD_CKPT_EVERY`` (or the explicit
``ckpt_every`` argument) selects a positive period, and is strictly
observe-only: all its side effects live under stripped ``shardops.*``
metrics and on disk, never in the ``shardsim.*`` digest.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
import zlib
from pathlib import Path
from typing import Optional

from repro.obs.artifacts import artifact_dir
from repro.util.settings import parse_int_setting, resolve_int_env

#: Checkpoint period in epochs; unset/0 disables checkpointing.
CKPT_EVERY_ENV = "REPRO_SHARD_CKPT_EVERY"

CKPT_SUBDIR = "checkpoints"
CKPT_SCHEMA = "repro.shard_ckpt/v1"
MANIFEST_NAME = "manifest.json"

_BLOB_MAGIC = b"RSC1"


class CheckpointError(RuntimeError):
    """A checkpoint blob or manifest is missing, torn or inconsistent."""


def resolve_ckpt_every(every: Optional[int] = None) -> int:
    """Checkpoint period: explicit argument beats env; 0 = disabled."""
    if every is not None:
        return parse_int_setting("checkpoint period", every, 0)
    return resolve_int_env(CKPT_EVERY_ENV, 0, 0)


def checkpoint_dir(base: Optional[Path] = None) -> Path:
    """Where this run's checkpoints live (not created here)."""
    return (base if base is not None else artifact_dir()) / CKPT_SUBDIR


def shard_ckpt_name(shard: int, epoch: int) -> str:
    return "shard-%d-epoch-%d.bin" % (shard, epoch)


def pending_name(epoch: int) -> str:
    return "pending-epoch-%d.bin" % epoch


def write_blob(path: Path, payload: object) -> int:
    """Atomically write ``magic + crc32 + pickle(payload)``; returns bytes.

    Atomic rename means a reader never sees a half-written blob — torn
    writes leave the old file (or nothing), both of which the manifest
    protocol handles.
    """
    body = pickle.dumps(payload, protocol=4)
    blob = _BLOB_MAGIC + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF) + body
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    return len(blob)


def read_blob(path: Path) -> object:
    """Inverse of :func:`write_blob`; CRC-validated."""
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError("unreadable checkpoint %s: %s" % (path, exc))
    if len(blob) < 8 or blob[:4] != _BLOB_MAGIC:
        raise CheckpointError("bad checkpoint magic in %s" % path)
    (crc,) = struct.unpack(">I", blob[4:8])
    body = blob[8:]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise CheckpointError("checkpoint CRC mismatch in %s" % path)
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise CheckpointError(
            "undecodable checkpoint %s: %s" % (path, exc)
        ) from exc


def write_manifest(directory: Path, doc: dict) -> Path:
    """Atomically publish the manifest — the commit point of a barrier."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return path


def load_manifest(directory: Path) -> Optional[dict]:
    """The last consistent barrier, or None when never checkpointed.

    Raises :class:`CheckpointError` when a manifest exists but is torn
    or names files that are gone — recovery then restarts from scratch.
    """
    path = directory / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckpointError("unreadable manifest %s: %s" % (path, exc))
    if not isinstance(doc, dict) or doc.get("schema") != CKPT_SCHEMA:
        raise CheckpointError("bad manifest schema in %s" % path)
    for key in ("epoch", "shards", "seed", "files", "pending"):
        if key not in doc:
            raise CheckpointError("manifest %s missing %r" % (path, key))
    for name in list(doc["files"].values()) + [doc["pending"]]:
        if not (directory / name).exists():
            raise CheckpointError(
                "manifest %s names missing file %s" % (path, name)
            )
    return doc
