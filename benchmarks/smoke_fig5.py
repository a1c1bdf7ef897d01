#!/usr/bin/env python
"""CI bench smoke: a reduced-slot Fig. 5 grid under the parallel executor.

Runs the midday slot for all four venues (4 runs fanned out over
``REPRO_WORKERS`` workers, 15 simulated minutes each), emits the
rendered figure to ``benchmarks/out/fig5_smoke.txt`` and leaves the
executor's ``benchmarks/out/metrics.json`` behind so CI can archive the
merged observability snapshot and, in its ``timings`` section, the
speedup numbers.  The metrics artefact is schema-validated here, so a
malformed export fails the job instead of shipping a broken artefact.

Run:  REPRO_WORKERS=4 python benchmarks/smoke_fig5.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from _shared import emit, fig5_results  # noqa: E402


def main() -> int:
    results = fig5_results(slot_subset=(4,), slot_duration=900.0)
    emit(
        "fig5_smoke",
        "\n\n".join(results[key].render() for key in results),
    )
    for key, res in results.items():
        assert res.slots, f"no slot results for {key}"
        for slot in res.slots:
            assert slot.h >= slot.h_b, f"h < h_b at {key} slot {slot.slot}"
    from repro.analysis.observability import provenance_breakdown
    from repro.obs.artifacts import artifact_path
    from repro.obs.registry import validate_metrics_doc

    metrics = artifact_path("metrics")
    assert metrics.exists(), f"missing metrics artefact: {metrics}"
    doc = json.loads(metrics.read_text())
    validate_metrics_doc(doc)
    print("\nbatch timings (metrics.json 'timings'):")
    print(json.dumps(doc["timings"], indent=2, sort_keys=True))
    merged = doc["merged"]
    assert merged["counters"].get("run.count"), "merged metrics lost run.count"
    print(f"metrics artefact: {metrics} (schema {doc['schema']}, "
          f"{doc['run_count']} runs, {doc['workers']} workers)")
    for prov, sent, hits, _misses, rate in provenance_breakdown(merged):
        print(f"  {prov:18s} sent={sent:7d} hits={hits:4d} "
              f"rate={100 * rate:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
