#!/usr/bin/env python
"""Regenerate the golden-master metrics fixtures.

Run after an *intentional* simulation-behaviour change::

    PYTHONPATH=src python tests/regen_golden.py

Rewrites ``tests/data/golden_metrics.json`` (the canonical metrics
document of the batch in :mod:`repro.experiments.golden`, serial run)
and ``tests/data/golden_metrics.digest`` (its SHA-256), plus the
sharded-city pair ``tests/data/golden_shards.json`` /
``tests/data/golden_shards.digest`` (serial, 1 shard — the digest every
other shard count must reproduce).  Commit the changed files together
with the change that moved them, and say why in the message — the whole
point of the fixtures is that drift is loud and reviewed.
"""

import json
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

DATA_DIR = pathlib.Path(__file__).resolve().parent / "data"
DOC_PATH = DATA_DIR / "golden_metrics.json"
DIGEST_PATH = DATA_DIR / "golden_metrics.digest"
SHARDS_DOC_PATH = DATA_DIR / "golden_shards.json"
SHARDS_DIGEST_PATH = DATA_DIR / "golden_shards.digest"


def _write_pair(doc_path, digest_path, doc) -> str:
    from repro.obs.golden import canonical_metrics_doc, metrics_digest

    canonical = canonical_metrics_doc(doc)
    digest = metrics_digest(doc)
    doc_path.write_text(json.dumps(canonical, indent=2, sort_keys=True) + "\n")
    digest_path.write_text(digest + "\n")
    print(f"wrote {doc_path}")
    print(f"wrote {digest_path}: {digest}")
    return digest


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        # Keep the batches' own artefacts out of benchmarks/out.
        os.environ["REPRO_ARTIFACT_DIR"] = scratch
        os.environ.pop("REPRO_SHARDS", None)
        from repro.experiments.golden import run_golden, run_golden_shards

        doc = run_golden(workers=1)
        shards_doc = run_golden_shards(workers=1, shards=1)
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    _write_pair(DOC_PATH, DIGEST_PATH, doc)
    _write_pair(SHARDS_DOC_PATH, SHARDS_DIGEST_PATH, shards_doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
