"""Command-line interface.

``python -m repro <command>`` drives the reproduction without writing
any code:

* ``run``      — one attack deployment; prints the Table-style summary
  and optionally exports per-client CSV / summary JSON;
* ``table``    — regenerate Table I, II, III or IV;
* ``fig``      — regenerate Fig. 1, 2, 4 or 5/6 (optionally one venue);
* ``report``   — regenerate everything and check every paper target;
* ``city``     — print synthetic-city statistics and the heat map;
* ``shards``   — district-sharded city runs (``shards run``) and the
  shard-count-invariance golden batch (``shards golden --check`` is
  what CI's shard-smoke job drives; see EXPERIMENTS.md);
* ``serve``    — the attacker-as-a-service layer: serve a venue's
  recorded simulator probe stream and check the decisions against the
  simulation's (``serve run``), or replay a UJI-shaped JSONL trace to a
  canonical decision digest (``serve replay``); see the README
  "Serving" section;
* ``obs``      — inspect a ``metrics.json`` artefact (summarize /
  export events as JSONL / top-N SSIDs by hits), reconstruct a client's
  hunt story from a lineage trace, render the hot-handler profile,
  watch live worker heartbeats (``obs watch``) or the whole fleet —
  including running serving processes — with per-shard epoch stats and
  run health (``obs top``), export per-epoch barrier spans
  (``obs shard-trace``) or per-probe serving-stage spans
  (``obs serve-trace``) as Perfetto-viewable traces, evaluate the
  serving SLO budgets (``obs slo``), or regenerate the Prometheus text
  exposition (``obs prom``) (see OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import List, Optional

from repro.analysis.export import clients_to_csv, session_to_json
from repro.experiments.attackers import ATTACKER_NAMES, make_attacker
from repro.experiments.calibration import all_profiles, default_city, venue_profile
from repro.experiments.runner import run_experiment, shared_wigle
from repro.obs.records import telemetry_dir, write_json, write_jsonl
from repro.util.tables import render_table

ATTACKERS = ATTACKER_NAMES


def _positive_duration(value: str) -> float:
    try:
        duration = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number") from None
    if not 0 < duration < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(
            "duration must be finite positive seconds"
        )
    return duration


# argparse prints the type callable's __name__ in error messages.
_positive_duration.__name__ = "duration"


def _positive_count(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"{count} is below 1")
    return count


def _load_fault_plan(path: Optional[str]):
    if not path:
        return None
    import json

    from repro.faults.plan import FaultPlan

    with open(path) as f:
        doc = json.load(f)
    return FaultPlan.from_dict(doc)


def _cmd_run(args: argparse.Namespace) -> int:
    import os

    city = default_city(args.city_seed)
    wigle = shared_wigle(args.city_seed)
    profile = venue_profile(args.venue)
    faults = _load_fault_plan(args.fault_plan)
    saved_lineage = os.environ.get("REPRO_LINEAGE")
    if args.lineage_out:
        os.environ["REPRO_LINEAGE"] = "1"
    try:
        result = run_experiment(
            city,
            wigle,
            make_attacker(args.attacker, city, wigle, faults=faults),
            profile,
            duration=args.duration,
            seed=args.seed,
            fidelity=args.fidelity,
            faults=faults,
        )
    finally:
        if args.lineage_out:
            if saved_lineage is None:
                os.environ.pop("REPRO_LINEAGE", None)
            else:
                os.environ["REPRO_LINEAGE"] = saved_lineage
    print(
        render_table(
            ["Attack", "Total probes", "Direct/Broadcast", "Clients connected",
             "h", "h_b"],
            [result.summary.as_table_row(args.attacker)],
            title=f"{args.attacker} at the {profile.venue_name} "
            f"({args.duration:.0f}s, seed {args.seed})",
        )
    )
    if args.csv:
        with open(args.csv, "w") as f:
            f.write(clients_to_csv(result.session))
        print(f"per-client records written to {args.csv}")
    if args.json:
        with open(args.json, "w") as f:
            f.write(session_to_json(result.session, label=args.attacker))
        print(f"summary written to {args.json}")
    if args.lineage_out:
        from repro.obs.lineage import chrome_trace_doc

        lineage = result.attacker.sim.lineage
        write_json(args.lineage_out, chrome_trace_doc(lineage.records()))
        print(
            f"{len(lineage)} lineage records "
            f"({lineage.dropped} dropped) written to {args.lineage_out} "
            "(Chrome trace-event JSON; open in Perfetto)"
        )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import tables

    maker = {
        "1": tables.table1,
        "2": tables.table2,
        "3": tables.table3,
        "4": tables.table4,
    }[args.number]
    result = maker() if args.number == "4" else maker(duration=args.duration)
    print(result.render())
    if args.number == "2":
        share = tables.wigle_share_of_broadcast_hits(result.runs[1])
        print(f"  WiGLE share of City-Hunter broadcast hits: {100 * share:.0f}%")
    return 0


def _cmd_fig(args: argparse.Namespace) -> int:
    from repro.experiments import figures

    if args.number == "1":
        print(figures.fig1(duration=args.duration).render())
    elif args.number == "2":
        print(figures.fig2(duration=args.duration).render())
    elif args.number == "4":
        print(figures.fig4().render())
    elif args.number in ("5", "6"):
        venues = [args.venue] if args.venue else list(all_profiles())
        slots = args.slots
        for key in venues:
            result = figures.fig5_venue(key, slots=slots, workers=args.workers)
            print(
                result.render()
                if args.number == "5"
                else result.render_breakdown()
            )
            print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    slots = None if args.full else (0, 4, 10)
    text = generate_report(
        duration=args.duration,
        fig5_slots=slots,
        fig5_slot_duration=args.slot_duration,
    )
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_city(args: argparse.Namespace) -> int:
    city = default_city(args.city_seed)
    wigle = shared_wigle(args.city_seed)
    from repro.wigle.queries import top_ssids_by_count, top_ssids_by_heat

    print(f"APs: {len(city.aps)}   photos: {len(city.photos)}   "
          f"venues: {len(city.venues)}")
    print("\ntop-5 SSIDs by AP count:")
    for ssid, count in top_ssids_by_count(wigle, 5):
        print(f"  {count:5d}  {ssid}")
    print("\ntop-5 SSIDs by heat value:")
    for ssid, heat in top_ssids_by_heat(wigle, city.heatmap, 5):
        print(f"  {int(heat):6d}  {ssid}")
    if args.heatmap:
        print("\n" + city.heatmap.render())
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.observability import (
        filter_events,
        load_metrics,
        pbfb_timeline,
        provenance_breakdown,
        run_events,
        serve_breakdown,
        shard_breakdown,
        sink_status,
        top_hit_ssids,
    )
    from repro.obs.artifacts import artifact_path

    path = args.path or artifact_path("metrics")
    try:
        doc = load_metrics(path)
    except FileNotFoundError:
        print(f"no metrics artefact at {path} (run a batch first, or pass "
              "--path)", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid metrics artefact {path}: {exc}", file=sys.stderr)
        return 1

    if args.action == "summarize":
        merged = doc["merged"]
        print(f"metrics artefact: {path}")
        print(f"  runs: {doc['run_count']}   workers: {doc['workers']}")
        counters = merged["counters"]
        for key in ("attacker.probes", "attacker.responses_sent",
                    "hunter.pbfb_swaps", "deauth.cycles",
                    "phone.deauth_rescans", "faults.",
                    "seeding.textgen_fallback"):
            named = {
                k: v for k, v in counters.items() if k.startswith(key)
            }
            for k, v in sorted(named.items()):
                print(f"  {k} = {v:g}")
        rows = [
            [prov, sent, hits, misses, f"{100 * rate:.1f}%"]
            for prov, sent, hits, misses, rate in provenance_breakdown(merged)
        ]
        if rows:
            print(render_table(
                ["provenance", "ssids sent", "hits", "misses", "hit rate"],
                rows,
                title="Provenance breakdown (merged over all runs)",
            ))
        swaps = sum(len(pbfb_timeline(r["metrics"])) for r in doc["runs"])
        print(f"  PB/FB timeline points across runs: {swaps}")
        shard = shard_breakdown(merged)
        if shard is not None:
            shards = shard["shards"]
            print(
                "  sharding: %s shard(s)"
                % (shards if shards is not None else "?")
            )
            if shard["owned_min"] is not None:
                print(
                    "    owned walkers per shard: min %d  median %d  max %d"
                    % (
                        shard["owned_min"],
                        shard["owned_median"],
                        shard["owned_max"],
                    )
                )
            print(
                "    migrations in/out: %d/%d"
                % (shard["migrations_in"], shard["migrations_out"])
            )
            print(
                "    scans %d  probes %d  offers %d (stale %d)  "
                "feedbacks %d  hits %d"
                % (
                    shard["scans"],
                    shard["probes"],
                    shard["offers"],
                    shard["offers_stale"],
                    shard["feedbacks"],
                    shard["hits"],
                )
            )
        serve = serve_breakdown(merged)
        if serve is not None:
            rate = serve["probes_per_s"]
            print(
                "  serving: %d event(s), %d probe(s), %d decision(s)"
                "%s"
                % (
                    serve["events"],
                    serve["probes"],
                    serve["decisions"],
                    "   probes/s %g" % rate if rate is not None else "",
                )
            )
            print(
                "    shed %d (%.2f%%)   events failed %d   queue peak %d"
                % (
                    serve["shed"],
                    100.0 * serve["shed_fraction"],
                    serve["events_failed"],
                    serve["queue_depth_peak"],
                )
            )
            for stage, row in serve["stages"].items():
                p50, p99 = row["p50_us"], row["p99_us"]
                print(
                    "    %-16s count %-7d est p50 %-9s est p99 %s"
                    % (
                        stage,
                        row["count"],
                        "%.0f us" % p50 if p50 is not None else "-",
                        "%.0f us" % p99 if p99 is not None else "-",
                    )
                )
        status = sink_status(doc)
        events_cap = (
            f"cap {status['events.cap']:g}"
            if status["events.cap"]
            else "cap ?"
        )
        events_note = (
            "  <- TRUNCATED (oldest events evicted)"
            if status["events.dropped"]
            else ""
        )
        print(
            f"  event sink: {status['events.buffered']:g} buffered, "
            f"{status['events.dropped']:g} dropped ({events_cap} per run)"
            f"{events_note}"
        )
        return 0

    if args.action == "events":
        events = filter_events(
            run_events(doc),
            kind=args.kind,
            since=args.since,
            until=args.until,
        )
        if args.jsonl:
            write_jsonl(args.jsonl, events, mode="w")
            print(f"{len(events)} events written to {args.jsonl}")
        else:
            for event in events:
                print(json.dumps(event, sort_keys=True))
        return 0

    if args.action == "top-ssids":
        rows = [
            [ssid, hits]
            for ssid, hits in top_hit_ssids(doc["merged"], args.count)
        ]
        print(render_table(
            ["ssid", "hits"], rows,
            title=f"Top {args.count} SSIDs by hits",
        ))
        return 0

    raise AssertionError(f"unhandled obs action {args.action!r}")


def _cmd_obs_lineage(args: argparse.Namespace) -> int:
    from repro.obs.artifacts import artifact_path
    from repro.obs.lineage import hunt_story, load_chrome_trace

    path = args.trace or artifact_path("lineage")
    try:
        records = load_chrome_trace(path)
    except FileNotFoundError:
        print(
            f"no lineage trace at {path} (run with --lineage-out or "
            "REPRO_LINEAGE=1 first, or pass --trace)",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        print(f"invalid lineage trace {path}: {exc}", file=sys.stderr)
        return 1
    print(hunt_story(records, args.mac))
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    from repro.obs.artifacts import artifact_path
    from repro.obs.profiler import (
        load_profile,
        render_hot_table,
        write_collapsed,
    )

    path = args.path or artifact_path("profile")
    try:
        doc = load_profile(path)
    except FileNotFoundError:
        print(
            f"no profile artefact at {path} (run with REPRO_PROFILE=1 "
            "first, or pass --path)",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        print(f"invalid profile artefact {path}: {exc}", file=sys.stderr)
        return 1
    print(render_hot_table(doc, top=args.count))
    if args.collapsed:
        write_collapsed(doc, args.collapsed)
        print(
            f"collapsed stacks written to {args.collapsed} "
            "(feed to flamegraph.pl or speedscope)"
        )
    return 0


def _cmd_obs_watch(args: argparse.Namespace) -> int:
    import time

    from repro.obs.telemetry import render_watch, watch_snapshot

    directory = args.dir or telemetry_dir()
    while True:
        rows = watch_snapshot(directory, stall_after_s=args.stall_after)
        print(render_watch(rows, args.stall_after))
        if args.once:
            return 1 if any(r["stalled"] for r in rows) else 0
        time.sleep(args.interval)
        print()


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.telemetry import fleet_snapshot, render_top

    directory = args.dir or telemetry_dir()
    while True:
        doc = fleet_snapshot(
            directory,
            stall_after_s=args.stall_after,
            straggler_threshold=args.straggler_threshold,
            imbalance_threshold=args.imbalance_threshold,
        )
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(render_top(doc))
        if args.once:
            return 0 if doc["health"]["healthy"] else 1
        time.sleep(args.interval)
        print()


def _cmd_obs_shard_trace(args: argparse.Namespace) -> int:
    from repro.obs.artifacts import artifact_path
    from repro.obs.epochs import epoch_trace_doc, load_epoch_dir

    directory = args.dir or telemetry_dir()
    records = load_epoch_dir(directory)
    if not records:
        print(
            f"no epochs-*.jsonl files under {directory} (run a sharded "
            "scenario with REPRO_EPOCH_TRACE=1 first, or pass --dir)",
            file=sys.stderr,
        )
        return 1
    path = write_json(
        args.out or artifact_path("epoch_trace"), epoch_trace_doc(records)
    )
    spans = sum(len(r) for r in records.values())
    print(
        f"{spans} epoch spans across {len(records)} shard(s) written to "
        f"{path} (Chrome trace-event JSON; open in Perfetto)"
    )
    return 0


def _cmd_obs_serve_trace(args: argparse.Namespace) -> int:
    from repro.obs.artifacts import artifact_path
    from repro.obs.reqtrace import load_reqtrace_dir, req_trace_doc

    directory = args.dir or telemetry_dir()
    records = load_reqtrace_dir(directory)
    if not records:
        print(
            f"no reqtrace-*.jsonl files under {directory} (run a serving "
            "workload with REPRO_REQ_TRACE=1 first, or pass --dir)",
            file=sys.stderr,
        )
        return 1
    path = write_json(
        args.out or artifact_path("req_trace"), req_trace_doc(records)
    )
    seqs = {r["seq"] for r in records}
    print(
        f"{len(records)} request spans over {len(seqs)} event(s) "
        f"written to {path} (Chrome trace-event JSON; open in Perfetto)"
    )
    return 0


def _cmd_obs_slo(args: argparse.Namespace) -> int:
    import time

    from repro.obs.artifacts import artifact_path
    from repro.obs.slo import default_slo, evaluate_slo, render_slo_report

    overrides = {}
    for item in args.budget or ():
        stage, _, value = item.partition("=")
        try:
            overrides[stage.strip()] = float(value)
        except ValueError:
            print(
                f"bad --budget {item!r} (want stage=microseconds)",
                file=sys.stderr,
            )
            return 2
    try:
        slo = default_slo(overrides, shed_budget=args.shed_budget)
    except ValueError as exc:
        print(f"slo error: {exc}", file=sys.stderr)
        return 2
    path = args.path or artifact_path("metrics")
    while True:
        try:
            with open(path) as fh:
                doc = json.load(fh)
            report = evaluate_slo(slo, doc)
        except FileNotFoundError:
            print(
                f"no artefact at {path} (run 'repro serve run' first)",
                file=sys.stderr,
            )
            return 2
        except ValueError as exc:
            print(f"slo error: {exc}", file=sys.stderr)
            return 2
        print(render_slo_report(report))
        if args.once:
            return 0 if report["ok"] else 1
        time.sleep(args.interval)
        print()


def _cmd_obs_prom(args: argparse.Namespace) -> int:
    from repro.analysis.observability import load_metrics
    from repro.obs.artifacts import artifact_path
    from repro.obs.prom import validate_prom_text, write_prom

    path = args.path or artifact_path("metrics")
    try:
        doc = load_metrics(path)
    except FileNotFoundError:
        print(f"no metrics artefact at {path} (run a batch first, or pass "
              "--path)", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid metrics artefact {path}: {exc}", file=sys.stderr)
        return 1
    out = args.out or artifact_path("metrics", ".prom")
    written = write_prom(doc, out)
    samples = validate_prom_text(written.read_text())
    print(f"{samples} exposition samples written to {written}")
    return 0


def _cmd_shards_run(args: argparse.Namespace) -> int:
    from repro.sim.shards.engine import run_sharded
    from repro.sim.shards.scenario import ShardScenario

    scenario = ShardScenario(
        stations=args.stations,
        sensors=args.sensors,
        duration=args.duration,
        seed=args.seed,
        size_m=args.size,
        district_m=args.district,
        epoch_s=args.epoch,
    )
    result = run_sharded(
        scenario,
        shards=args.shards,
        mode=args.mode,
        collect_states=False,
        faults=_load_fault_plan(args.fault_plan),
        ckpt_every=args.ckpt_every,
    )
    counters = result.metrics.get("counters", {})
    doc = {
        "shards": result.shards,
        "mode": result.mode,
        "epochs": result.epochs,
        "digest": result.digest(),
        "summary": result.summary,
        "wall_phase_s": round(result.wall_phase_s, 4),
        "wall_handoff_s": round(result.wall_handoff_s, 4),
        "recovery": {
            "crashes": int(counters.get("shardops.recovery.crashes", 0)),
            "respawns": int(counters.get("shardops.recovery.respawns", 0)),
            "rollback_epochs": int(
                counters.get("shardops.recovery.rollback_epochs", 0)
            ),
            "ckpt_barriers": int(counters.get("shardops.ckpt.barriers", 0)),
        },
    }
    if args.json:
        write_json(args.json, doc, indent=2)
    summary = result.session_summary()
    print(
        "sharded city: %d shards (%s), %d epochs"
        % (result.shards, result.mode, result.epochs)
    )
    print(
        "  stations %d  probed %d  connected %d  (h_b %.1f%%)"
        % (
            scenario.stations,
            summary.total_clients,
            summary.connected_total,
            100.0 * summary.broadcast_hit_rate,
        )
    )
    print(
        "  scans %d  probes %d  offers %d  feedbacks %d"
        % (
            result.summary["scans"],
            result.summary["probes"],
            result.summary["offers"],
            result.summary["feedbacks"],
        )
    )
    if doc["recovery"]["crashes"] or doc["recovery"]["ckpt_barriers"]:
        print(
            "  recovery: %d crash(es), %d respawn(s), %d epoch(s) rolled "
            "back, %d checkpoint barrier(s)"
            % (
                doc["recovery"]["crashes"],
                doc["recovery"]["respawns"],
                doc["recovery"]["rollback_epochs"],
                doc["recovery"]["ckpt_barriers"],
            )
        )
    print("  digest %s" % result.digest())
    return 0


def _cmd_shards_golden(args: argparse.Namespace) -> int:
    from repro.experiments.golden import run_golden_shards
    from repro.obs.golden import diff_metrics_docs, metrics_digest

    try:
        doc = run_golden_shards(
            workers=args.workers, shards=args.shards, chaos=args.chaos
        )
    except ValueError as exc:
        print(f"shards golden: {exc}", file=sys.stderr)
        return 2
    digest = metrics_digest(doc)
    print(
        "golden shards digest (shards=%s%s): %s"
        % (args.shards or "env", ", chaos" if args.chaos else "", digest)
    )
    if args.json:
        write_json(args.json, doc, indent=2)
    if args.check:
        with open(args.check) as fh:
            expected = fh.read().strip()
        if digest != expected:
            print("digest MISMATCH (expected %s)" % expected, file=sys.stderr)
            fixture_json = pathlib.Path(args.check).with_suffix(".json")
            if fixture_json.exists():
                with open(fixture_json) as fh:
                    old = json.load(fh)
                print(diff_metrics_docs(old, doc), file=sys.stderr)
            return 1
        print("digest matches fixture %s" % args.check)
    return 0


def _serve_core(args: argparse.Namespace):
    """The replay core: seeded at the venue centre with ``--seed``, as a
    recorded attacker there would be."""
    from repro.serve.core import RankingCore

    city = default_city(args.city_seed)
    profile = venue_profile(args.venue)
    position = city.venue(profile.venue_name).region.center
    return RankingCore.seeded(
        shared_wigle(args.city_seed), city.heatmap, position, seed=args.seed
    )


def _cmd_serve_run(args: argparse.Namespace) -> int:
    from repro.obs.artifacts import artifact_path
    from repro.obs.prom import validate_prom_text, write_prom
    from repro.serve.events import decisions_digest
    from repro.serve.record import record_probe_stream
    from repro.serve.service import run_stream, serve_metrics_doc

    city = default_city(args.city_seed)
    wigle = shared_wigle(args.city_seed)
    recording = record_probe_stream(
        city,
        wigle,
        venue=args.venue,
        duration=args.duration,
        seed=args.seed,
        fidelity="burst",
    )
    core = recording.seeded_core(wigle, city)
    service = run_stream(
        core,
        recording.events,
        queue_max=args.queue_max,
        shed=args.shed,
    )
    stats = core.stats()
    shed = int(service.shed_total())
    print(
        "served %d events recorded at the %s (%.0f s, seed %d): "
        "%d decisions, %d shed"
        % (
            len(recording.events),
            venue_profile(args.venue).venue_name,
            args.duration,
            args.seed,
            len(service.decisions),
            shed,
        )
    )
    print(
        "  db %d SSIDs  clients %d  rank cache %d hit / %d miss"
        % (
            stats["db_size"],
            stats["clients"],
            stats["rank_cache_hits"],
            stats["rank_cache_misses"],
        )
    )
    served = decisions_digest(service.decisions)
    match = served == decisions_digest(recording.decisions)
    if match:
        verdict = "yes"
    elif shed:
        verdict = "no, %d probe(s) shed" % shed
    else:
        verdict = "NO"
    print(
        "  decisions equal the simulation's: %s (%d simulated, digest %s)"
        % (verdict, len(recording.decisions), served)
    )
    doc = serve_metrics_doc(
        service, seed=args.seed, venue=args.venue
    )
    metrics_path = write_json(
        args.metrics_out or artifact_path("metrics"), doc, indent=2
    )
    prom_path = write_prom(doc, metrics_path.with_suffix(".prom"))
    samples = validate_prom_text(prom_path.read_text())
    print(f"metrics written to {metrics_path}")
    print(f"{samples} exposition samples written to {prom_path}")
    return 0 if match or shed else 1


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    from repro.serve.events import decisions_digest
    from repro.serve.service import run_stream
    from repro.serve.trace import load_trace, write_decisions

    try:
        events, stats = load_trace(args.trace)
    except FileNotFoundError:
        print(f"no trace at {args.trace}", file=sys.stderr)
        return 1
    if not events:
        print(
            f"trace {args.trace} yielded no events "
            f"({stats.skipped} line(s) skipped)",
            file=sys.stderr,
        )
        return 1
    service = run_stream(_serve_core(args), events)
    digest = decisions_digest(service.decisions)
    print(
        "replayed %d events (%d line(s) skipped): %d decisions"
        % (len(events), stats.skipped, len(service.decisions))
    )
    for line_no, reason in stats.reasons[:5]:
        print(f"  skipped line {line_no}: {reason}")
    print(f"  decisions digest {digest}")
    if args.decisions_out:
        write_decisions(service.decisions, args.decisions_out)
        print(f"decisions written to {args.decisions_out}")
    if args.strict and stats.skipped:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="City-Hunter (ICDCS 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one attack deployment")
    run.add_argument("--attacker", choices=ATTACKERS, default="cityhunter")
    run.add_argument("--venue", choices=sorted(all_profiles()), default="canteen")
    run.add_argument("--duration", type=_positive_duration, default=1800.0)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--fidelity", choices=("frame", "burst"), default="frame")
    run.add_argument("--city-seed", type=int, default=42)
    run.add_argument("--fault-plan",
                     help="JSON fault plan (FaultPlan.to_dict schema) to "
                          "inject channel/outage/WiGLE faults")
    run.add_argument("--csv", help="write per-client records to this file")
    run.add_argument("--json", help="write the summary document to this file")
    run.add_argument(
        "--lineage-out",
        metavar="PATH",
        help="enable causal lineage tracing and write the run's Chrome "
             "trace-event JSON here (view in Perfetto; query with "
             "'repro obs lineage')",
    )
    run.set_defaults(func=_cmd_run)

    table = sub.add_parser("table", help="regenerate a table of the paper")
    table.add_argument("number", choices=("1", "2", "3", "4"))
    table.add_argument("--duration", type=_positive_duration, default=1800.0)
    table.set_defaults(func=_cmd_table)

    fig = sub.add_parser("fig", help="regenerate a figure of the paper")
    fig.add_argument("number", choices=("1", "2", "4", "5", "6"))
    fig.add_argument("--duration", type=_positive_duration, default=1800.0)
    fig.add_argument("--venue", choices=sorted(all_profiles()))
    fig.add_argument("--slots", type=int, nargs="*",
                     help="restrict Fig 5/6 to these hourly slots (0-11)")
    fig.add_argument("--workers", type=int,
                     help="parallel workers for Fig 5/6 (default: the "
                          "REPRO_WORKERS env var, else all cores)")
    fig.set_defaults(func=_cmd_fig)

    report = sub.add_parser(
        "report", help="regenerate everything and check paper targets"
    )
    report.add_argument("--duration", type=_positive_duration, default=1800.0)
    report.add_argument("--slot-duration", type=_positive_duration,
                        default=3600.0)
    report.add_argument("--full", action="store_true",
                        help="run all 12 hourly Fig 5 slots per venue")
    report.add_argument("--out", help="write the markdown report here")
    report.set_defaults(func=_cmd_report)

    obs = sub.add_parser(
        "obs", help="inspect a metrics.json observability artefact"
    )
    obs_sub = obs.add_subparsers(dest="action", required=True)
    obs_summarize = obs_sub.add_parser(
        "summarize", help="headline counters + provenance breakdown"
    )
    obs_events = obs_sub.add_parser(
        "events", help="dump the batch's structured events as JSON Lines"
    )
    obs_events.add_argument(
        "--jsonl", help="write events here instead of stdout"
    )
    obs_events.add_argument(
        "--kind", help="only events of this kind (e.g. fault.outage)"
    )
    obs_events.add_argument(
        "--since", type=float, metavar="T",
        help="only events with sim time >= T seconds",
    )
    obs_events.add_argument(
        "--until", type=float, metavar="T",
        help="only events with sim time < T seconds",
    )
    obs_top = obs_sub.add_parser(
        "top-ssids", help="top-N SSIDs by recorded hits"
    )
    obs_top.add_argument("-n", "--count", type=int, default=10)
    for obs_parser in (obs_summarize, obs_events, obs_top):
        obs_parser.add_argument(
            "--path",
            help="metrics artefact to read (default: metrics.json in the "
                 "resolved artefact directory)",
        )
        obs_parser.set_defaults(func=_cmd_obs)

    obs_lineage = obs_sub.add_parser(
        "lineage",
        help="print one client's hunt story from a lineage trace file",
    )
    obs_lineage.add_argument("mac", help="client MAC address")
    obs_lineage.add_argument(
        "--trace",
        help="Chrome trace-event JSON written by 'repro run --lineage-out' "
             "(default: lineage.json in the resolved artefact directory)",
    )
    obs_lineage.set_defaults(func=_cmd_obs_lineage)

    obs_profile = obs_sub.add_parser(
        "profile", help="hot-handler table from a profile artefact"
    )
    obs_profile.add_argument(
        "--path",
        help="profile artefact to read (default: profile.json in the "
             "resolved artefact directory; produced under REPRO_PROFILE=1)",
    )
    obs_profile.add_argument("-n", "--count", type=int, default=15)
    obs_profile.add_argument(
        "--collapsed", metavar="PATH",
        help="also write flamegraph-ready collapsed stacks here",
    )
    obs_profile.set_defaults(func=_cmd_obs_profile)

    obs_watch = obs_sub.add_parser(
        "watch", help="tail live worker heartbeats and flag stalls"
    )
    obs_watch.add_argument(
        "--dir",
        help="telemetry directory (default: telemetry/ in the resolved "
             "artefact directory)",
    )
    obs_watch.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (status 1 when stalled)",
    )
    obs_watch.add_argument(
        "--stall-after", type=float, default=60.0, metavar="S",
        help="flag a worker silent for more than S seconds (default 60)",
    )
    obs_watch.add_argument(
        "--interval", type=float, default=5.0, metavar="S",
        help="refresh period in follow mode (default 5)",
    )
    obs_watch.set_defaults(func=_cmd_obs_watch)

    obs_fleet = obs_sub.add_parser(
        "top",
        help="live fleet dashboard: heartbeats + per-shard epoch stats "
             "+ run health",
    )
    obs_fleet.add_argument(
        "--dir",
        help="telemetry directory (default: telemetry/ in the resolved "
             "artefact directory)",
    )
    obs_fleet.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (non-zero status when the run "
             "is stalled or imbalanced)",
    )
    obs_fleet.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable fleet snapshot instead of tables",
    )
    obs_fleet.add_argument(
        "--stall-after", type=float, default=60.0, metavar="S",
        help="flag a worker/shard silent for more than S seconds "
             "(default 60)",
    )
    obs_fleet.add_argument(
        "--interval", type=float, default=5.0, metavar="S",
        help="refresh period in follow mode (default 5)",
    )
    obs_fleet.add_argument(
        "--straggler-threshold", type=float, default=4.0, metavar="R",
        help="flag when the slowest shard's mean phase time exceeds R x "
             "the median (default 4)",
    )
    obs_fleet.add_argument(
        "--imbalance-threshold", type=float, default=4.0, metavar="R",
        help="flag when one shard's handoff volume exceeds R x the mean "
             "(default 4)",
    )
    obs_fleet.set_defaults(func=_cmd_obs_top)

    obs_shard_trace = obs_sub.add_parser(
        "shard-trace",
        help="export per-epoch barrier spans as Chrome trace-event JSON",
    )
    obs_shard_trace.add_argument(
        "--dir",
        help="telemetry directory holding epochs-*.jsonl (default: "
             "telemetry/ in the resolved artefact directory)",
    )
    obs_shard_trace.add_argument(
        "--out",
        help="trace file to write (default: epoch_trace.json in the "
             "resolved artefact directory)",
    )
    obs_shard_trace.set_defaults(func=_cmd_obs_shard_trace)

    obs_serve_trace = obs_sub.add_parser(
        "serve-trace",
        help="export per-probe serving-stage spans as Chrome trace-event "
             "JSON (ingress + consumer tracks, flow arrows per probe)",
    )
    obs_serve_trace.add_argument(
        "--dir",
        help="telemetry directory holding reqtrace-*.jsonl (default: "
             "telemetry/ in the resolved artefact directory)",
    )
    obs_serve_trace.add_argument(
        "--out",
        help="trace file to write (default: req_trace.json in the "
             "resolved artefact directory)",
    )
    obs_serve_trace.set_defaults(func=_cmd_obs_serve_trace)

    obs_slo = obs_sub.add_parser(
        "slo",
        help="evaluate the serving SLO (p99 stage budgets + shed budget) "
             "against a serving run's metrics.json",
    )
    obs_slo.add_argument(
        "--path",
        help="artefact to evaluate (default: metrics.json in the "
             "resolved artefact directory)",
    )
    obs_slo.add_argument(
        "--once", action="store_true",
        help="evaluate once and exit (status 1 on budget breach)",
    )
    obs_slo.add_argument(
        "--interval", type=float, default=5.0, metavar="S",
        help="refresh period in follow mode (default 5)",
    )
    obs_slo.add_argument(
        "--budget", action="append", metavar="STAGE=US",
        help="override one stage's p99 budget in microseconds (stages: "
             "queue_wait, select_latency, apply); repeatable",
    )
    obs_slo.add_argument(
        "--shed-budget", type=float, metavar="FRAC",
        help="override the shed-fraction budget (default 0.05)",
    )
    obs_slo.set_defaults(func=_cmd_obs_slo)

    obs_prom = obs_sub.add_parser(
        "prom",
        help="regenerate the Prometheus text exposition from metrics.json",
    )
    obs_prom.add_argument(
        "--path",
        help="metrics artefact to read (default: metrics.json in the "
             "resolved artefact directory)",
    )
    obs_prom.add_argument(
        "--out",
        help="exposition file to write (default: metrics.prom in the "
             "resolved artefact directory)",
    )
    obs_prom.set_defaults(func=_cmd_obs_prom)

    serve = sub.add_parser(
        "serve", help="attacker-as-a-service probe-stream ranking"
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_run = serve_sub.add_parser(
        "run",
        help="record a venue's simulated probe stream and serve it",
    )
    serve_run.add_argument(
        "--duration", type=_positive_duration, default=300.0,
        help="simulated seconds of the venue to record (default 300)",
    )
    serve_run.add_argument("--shed", action="store_true",
                           help="drop probes when the ingress queue is full "
                                "instead of backpressuring")
    serve_run.add_argument("--queue-max", type=_positive_count,
                           help="ingress queue bound (default 1024)")
    serve_run.add_argument(
        "--metrics-out", metavar="PATH",
        help="metrics artefact to write (default: metrics.json in the "
             "resolved artefact directory; a .prom exposition is written "
             "alongside)",
    )
    serve_run.set_defaults(func=_cmd_serve_run)

    serve_replay = serve_sub.add_parser(
        "replay",
        help="replay a UJI-shaped JSONL probe trace to burst decisions",
    )
    serve_replay.add_argument("trace", help="JSONL trace file")
    serve_replay.add_argument(
        "--decisions-out", metavar="PATH",
        help="write the burst decisions as JSONL here",
    )
    serve_replay.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any trace line was skipped",
    )
    serve_replay.set_defaults(func=_cmd_serve_replay)

    for serve_parser in (serve_run, serve_replay):
        serve_parser.add_argument(
            "--venue", choices=sorted(all_profiles()), default="canteen",
            help="venue whose centre places the attacker (and whose "
                 "crowd serve run records)",
        )
        serve_parser.add_argument("--seed", type=int, default=7)
        serve_parser.add_argument("--city-seed", type=int, default=42)

    city = sub.add_parser("city", help="inspect the synthetic city")
    city.add_argument("--city-seed", type=int, default=42)
    city.add_argument("--heatmap", action="store_true",
                      help="also render the ASCII heat map")
    city.set_defaults(func=_cmd_city)

    shards = sub.add_parser(
        "shards", help="district-sharded city simulation"
    )
    shards_sub = shards.add_subparsers(dest="shards_command", required=True)

    shards_run = shards_sub.add_parser(
        "run", help="run one sharded city scenario"
    )
    shards_run.add_argument("--stations", type=int, default=2000)
    shards_run.add_argument("--sensors", type=int, default=200)
    shards_run.add_argument("--duration", type=_positive_duration,
                            default=600.0)
    shards_run.add_argument("--seed", type=int, default=7)
    shards_run.add_argument("--size", type=float, default=1680.0,
                            help="city edge length in metres")
    shards_run.add_argument("--district", type=float, default=120.0,
                            help="district edge length in metres")
    shards_run.add_argument("--epoch", type=float, default=5.0,
                            help="handoff barrier spacing in sim seconds")
    shards_run.add_argument("--shards", type=int,
                            help="shard count (default: REPRO_SHARDS, else 1)")
    shards_run.add_argument("--mode", choices=("inline", "process"),
                            help="execution mode (default: REPRO_SHARD_MODE)")
    shards_run.add_argument("--fault-plan", metavar="PATH",
                            help="JSON fault plan; its shard_faults block "
                                 "injects crash/stall/corrupt faults")
    shards_run.add_argument("--ckpt-every", type=int, metavar="N",
                            help="checkpoint every N epochs (default: "
                                 "REPRO_SHARD_CKPT_EVERY, else off)")
    shards_run.add_argument("--json", help="write the run document here")
    shards_run.set_defaults(func=_cmd_shards_run)

    shards_golden = shards_sub.add_parser(
        "golden",
        help="run the sharded golden batch and optionally check its "
             "digest against a fixture (the CI shard-smoke gate)",
    )
    shards_golden.add_argument("--shards", type=int,
                               help="shard count (default: REPRO_SHARDS)")
    shards_golden.add_argument("--workers", type=int,
                               help="executor width (default: REPRO_WORKERS)")
    shards_golden.add_argument("--check", metavar="FIXTURE",
                               help="digest fixture to compare against "
                                    "(tests/data/golden_shards.digest)")
    shards_golden.add_argument("--chaos", action="store_true",
                               help="inject the golden shard-crash fault "
                                    "(process mode + checkpoints); the "
                                    "digest must still match the fixture")
    shards_golden.add_argument("--json", help="write the metrics doc here")
    shards_golden.set_defaults(func=_cmd_shards_golden)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
