"""One hermetic benchmark process: set up, measure, check, report.

``run.py`` starts this file in a fresh interpreter with every ``REPRO_*``
variable removed and the artefact directory pointed at a scratch
directory, then reads the JSON document it writes to ``--out``.  With
``--setup-only`` it stops after set-up, which is how ``run.py`` takes
more than one set-up sample per run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def measure(workload, seconds: float, min_iters: int):
    """Repeat ``iterate`` until another repetition would pass ``seconds``."""
    iterations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        iterations.append(workload.iterate())
        now = time.perf_counter()
        if len(iterations) >= min_iters and now - start + (now - t0) > seconds:
            return iterations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import workloads

    def set_up():
        t0 = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import repro  # noqa: F401  (import time is part of set-up)

        size = workloads.SMOKE if args.smoke else workloads.FULL
        workload = workloads.WORKLOADS[args.workload](args.seed, size)
        import_s = time.perf_counter() - t0
        workload.setup()
        return workload, import_s

    (workload, import_s), unit = workloads.CLOCK.unit("setup", set_up)
    doc = {
        "setup_wall_s": unit["wall_s"],
        "setup_s": unit["ref_s"],
        "setup_parts": dict(workload.setup_s, import_s=import_s),
    }
    if args.setup_only:
        Path(args.out).write_text(json.dumps(doc))
        return 0

    start = time.perf_counter()
    workload.prepare()
    prepare_s = time.perf_counter() - start
    start = time.perf_counter()
    extra = workload.open_loop()
    # The first repetition in a process pays for lazy imports, caches and
    # the interpreter's specialisation of hot code (15-40 % on a 2-vCPU
    # VM); it is checked but not timed, and reported as setup.warmup_s.
    warmup = workload.iterate()
    budget = args.seconds - (time.perf_counter() - start)
    tracer = None
    if args.trace:
        from tracer import Tracer

        plain = measure(workload, budget / 3.0, 1)
        tracer = Tracer()
        workload.tracer = tracer
        remaining = args.seconds - (time.perf_counter() - start)
        with tracer:
            traced = measure(workload, remaining, 1)
        workload.tracer = None
    else:
        plain = measure(workload, budget, 2)
        traced = []

    checks = workload.check([warmup] + plain + traced)
    if traced:
        untraced = {i["digest"] for i in plain}
        with_trace = {i["digest"] for i in traced}
        checks.append(workloads.check(
            "tracing does not change results", untraced == with_trace,
            "untraced %s, traced %s"
            % (", ".join(sorted(untraced)), ", ".join(sorted(with_trace))),
        ))
    doc.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        checks=checks,
        digest=plain[0]["digest"],
        peak_rss_mb=peak_rss_mb(),
        prepare_s=prepare_s,
        settings=dict(
            workload.settings(),
            python=platform.python_version(),
            implementation=platform.python_implementation(),
            nproc=os.cpu_count(),
            hashseed=os.environ.get("PYTHONHASHSEED"),
            artifact_dir=os.environ.get("REPRO_ARTIFACT_DIR"),
            repro_env=sorted(k for k in os.environ if k.startswith("REPRO_")),
            gc_threshold=list(gc.get_threshold()),
            calib_ref_s=workloads.CALIB_REF_S,
            iterations=len(plain),
            traced_iterations=len(traced),
        ),
        summary=summarise(workload, warmup, plain, traced, extra, tracer),
        units=[{k: v for k, v in u.items() if not isinstance(v, list)}
               for i in plain for u in i["units"]],
    )
    if tracer is not None:
        trace_dir = ROOT / ".perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / ("%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write(path)
        doc["trace_file"] = str(path.relative_to(ROOT))
        doc["missing_hooks"] = tracer.missing
    Path(args.out).write_text(json.dumps(doc, default=str))
    return 0


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def by_key(iterations) -> dict:
    """Timed units of every repetition, grouped by what they ran."""
    out: dict = {}
    for it in iterations:
        for unit in it["units"]:
            out.setdefault(unit["key"], []).append(unit)
    return out


def per_second(units: dict, field: str, time_field: str) -> float:
    """``field`` of one repetition over its median time per unit."""
    work = sum(us[0][field] for us in units.values())
    spent = sum(_median(u[time_field] for u in us) for us in units.values())
    return work / spent if spent else 0.0


def summarise(workload, warmup, plain, traced, extra, tracer) -> dict:
    """Every metric this run can give, keyed by its BENCHMARK.json name."""
    import workloads as wl

    units = by_key(plain)
    every = [u for us in units.values() for u in us] + list((extra or {}).values())
    attempted = sum(i["attempted"] for i in [warmup] + plain + traced)
    failed = sum(i["failed"] for i in [warmup] + plain + traced)
    for p in (extra or {}).values():
        attempted += len(workload.events)
        failed += p["failed"] + p["shed"]
    m = {
        "sim_s_per_s": per_second(units, "sim_s", "ref_s"),
        "host.wall_sim_s_per_s": per_second(units, "sim_s", "wall_s"),
        "probes_per_s": per_second(units, "probes", "wall_s"),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "h_b_err_pp": workload.h_b_err_pp(plain[-1]),
        "gc.gen2_collections": _median(u["gen2"] for u in every),
        "gc.pause_s": _median(u["pause_s"] for u in every),
        "gc.max_pause_ms": 1e3 * max(u["max_pause_s"] for u in every),
        "host.calib_s": _median(u["calib_s"] for u in every),
        "setup.warmup_s": sum(u["wall_s"] for u in warmup["units"]),
    }
    if "run_wall_s" in every[0]:
        m["experiments.runs"] = float(len(units))
        # run_wall_s includes the calibration samples taken inside the run.
        m["experiments.overhead_s"] = sum(
            _median(u["wall_s"] + u["probe_s"] - u["run_wall_s"] for u in us)
            for us in units.values())
    if "station_steps" in plain[0]:
        m["station_steps_per_s"] = plain[0]["station_steps"] / _median(
            u["wall_s"] for u in units["city"])
        m["shards.epochs"] = float(plain[0]["epochs"])
        m["shards.exchange_s"] = _median(i["exchange_s"] for i in plain)
    if extra:
        late = []
        for key, p in extra.items():
            miss = sum(1 for x in p["latency_s"] if x > wl.MISS_LIMIT_S)
            m[key + ".p50_ms"] = 1e3 * wl.percentile(p["latency_s"], 50)
            m[key + ".p99_ms"] = 1e3 * wl.percentile(p["latency_s"], 99)
            m[key + ".miss_frac"] = (miss + p["failed"] + p["shed"]) / max(
                1, len(p["latency_s"]))
            m[key + ".samples"] = len(p["latency_s"])
            late += p["late_s"]
        m["serve.gen_late_ms.p99"] = 1e3 * wl.percentile(late, 99)
        closed = units["closed"][0]
        lookups = closed["cache_hits"] + closed["cache_misses"]
        m["serve.decisions"] = float(closed["decisions"])
        m["serve.no_decision_ratio"] = 1.0 - closed["decisions"] / workload.n_probes
        m["serve.rank_cache_hit_ratio"] = (
            closed["cache_hits"] / lookups if lookups else 0.0)
    if tracer is not None:
        m.update(layer_metrics(units, traced, tracer))
    return m


def layer_metrics(units, traced, tracer) -> dict:
    """Per-layer numbers from the traced repetitions, per repetition."""
    n = float(len(traced))
    own = tracer.layer_self_s()
    calls, counts = tracer.calls, tracer.counts

    def per(value):
        return value / n

    traced_units = by_key(traced)
    deliveries = counts.get("dot11.deliveries", 0)
    selections = calls("select_for_client")
    m = {
        "trace.overhead_ratio": (
            sum(_median(u["ref_s"] for u in us) for us in traced_units.values())
            / sum(_median(u["ref_s"] for u in units[key])
                  for key in traced_units)),
        "sim.events": per(counts.get("sim.events", 0)),
        "mobility.calls": per(calls("PathMobility.position_at")),
        "dot11.tx": per(calls("Medium.transmit")
                        + calls("Medium.transmit_response_burst")),
        "dot11.deliveries": per(deliveries),
        "dot11.candidates": per(counts.get("dot11.candidates", 0)),
        "dot11.useful_ratio": (
            (deliveries - counts.get("dot11.ignored", 0)) / deliveries
            if deliveries else 0.0),
        "devices.rx": per(calls("Phone.receive") + calls("Phone.receive_burst")),
        "devices.scans": per(tracer.callback_calls("Phone._do_scan")),
        "population.people": per(counts.get("population.people", 0)),
        "attacks.probes": per(counts.get("attacks.probes", 0)),
        "core.selections": per(selections),
        "core.empty_ratio": (
            counts.get("core.empty", 0) / selections if selections else 0.0),
        "core.hits": per(calls("WeightedSsidDatabase.record_hit")),
        "analysis.records": per(sum(
            acc[0] for name, acc in tracer.totals.items()
            if name.startswith("AttackSession."))),
        "shards.phase_a_s": per(tracer.inclusive_s("ShardRuntime.run_phase_a")),
        "shards.phase_b_s": per(tracer.inclusive_s("ShardRuntime.run_phase_b")),
        "shards.records": per(counts.get("shards.records", 0)),
        "shards.imbalance": tracer.shard_imbalance(),
        "obs.calls": per(tracer.layer_calls().get("obs", 0)),
        "serve.handle_s": per(tracer.inclusive_s("RankingCore.handle")),
    }
    for layer in ("sim", "mobility", "dot11", "devices", "population",
                  "attacks", "core", "analysis", "obs"):
        m[layer + ".self_s"] = per(own.get(layer, 0.0))
    closed = traced_units.get("closed")
    if closed:
        import workloads as wl

        waits = [x for u in closed for x in u.get("queue_wait_s", ())]
        m["serve.queue_wait_ms.p99"] = 1e3 * wl.percentile(waits, 99)
        m["serve.transport_s"] = _median(
            u["wall_s"] - u["handle_s"] for u in closed)
    return m


if __name__ == "__main__":
    sys.exit(main())
