"""Command-line interface: quick, scaled runs of the key experiments.

Usage::

    python -m repro demo            # QinDB semantics walkthrough
    python -m repro fig5            # engine write-amplification comparison
    python -m repro fig9 --days 10  # dedup-vs-update-time mini month
    python -m repro month --pipelined  # overlapped daily update cycles
    python -m repro dedup-sweep     # bandwidth saving across dup ratios
    python -m repro observe         # traced cycle: stages + metrics
    python -m repro bandwidth --json  # wire bytes: dedup x encoding arms
    python -m repro serve --json    # read-serving: batching, shedding, SLO
    python -m repro chaos --plan single-node-crash  # faults + recovery
    python -m repro health --json   # telemetry: alerts, MTTD/MTTR, profile

Each subcommand is a smaller sibling of the corresponding benchmark in
``benchmarks/`` — same code paths, friendlier runtimes.

Every subcommand is one row of :data:`COMMANDS`:
``name -> (help, add_arguments, run, render, ok)``.  ``run(args)`` does
the experiment and returns its report as one JSON-ready dict;
``--json`` prints exactly that dict, otherwise ``render(data)`` prints
it as tables; the exit code is 0 exactly when ``ok(data)`` — the
command's hard contracts — holds.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.tables import render_table


def _table(rows, *columns) -> None:
    """Print dict ``rows`` as one aligned table.

    A column is ``(header, key)`` or ``(header, key, fmt)``; ``fmt`` is a
    ``str.format`` template or a callable, applied to ``row[key]``.
    """
    body = []
    for row in rows:
        cells = []
        for _header, key, *fmt in columns:
            value = row[key]
            for spec in fmt:  # at most one
                value = spec(value) if callable(spec) else spec.format(value)
            cells.append(value)
        body.append(cells)
    print(render_table([column[0] for column in columns], body))


def _yes_no(flag) -> str:
    return "yes" if flag else "NO"


def _seconds_or_dash(value) -> str:
    return "-" if value is None else f"{value:.2f}s"


def _always_ok(data: dict) -> bool:
    return True


def _dump_json(data, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(data, handle)


# ----------------------------------------------------------------------
# demo, fig5, fig9, month, dedup-sweep
# ----------------------------------------------------------------------


def _run_demo(args) -> dict:
    from repro.qindb.engine import QinDB

    db = QinDB.with_capacity(64 * 1024 * 1024)
    db.put(b"url", 1, b"version-1 terms")
    db.put(b"url", 2, None)
    db.put(b"url", 3, b"version-3 terms")
    db.delete(b"url", 1)
    stats = db.stats()
    return {
        "operations": [
            {"operation": "GET url/3", "result": db.get(b"url", 3).decode()},
            {
                "operation": "GET url/2 (deduplicated)",
                "result": db.get(b"url", 2).decode(),
            },
            {"operation": "GET url/1 (deleted)", "result": "KeyNotFoundError"},
        ],
        "stats": {
            "software_write_amplification": stats.software_write_amplification,
            "hardware_write_amplification": stats.hardware_write_amplification,
            "memtable_items": stats.memtable_items,
        },
    }


def _render_demo(data: dict) -> None:
    _table(
        data["operations"], ("operation", "operation"), ("result", "result")
    )
    stats = data["stats"]
    print(
        f"\nsoftware WA {stats['software_write_amplification']:.2f}x, "
        f"hardware WA {stats['hardware_write_amplification']:.2f}x, "
        f"{stats['memtable_items']} memtable items"
    )


def _fig5_arguments(parser) -> None:
    parser.add_argument("--keys", type=int, default=128)


def _run_fig5(args) -> dict:
    from repro.workloads.fig5 import run_fig5

    return run_fig5(args.keys, 8 * 1024, 8)


def _render_fig5(data: dict) -> None:
    _table(
        data["engines"],
        ("engine", "engine"),
        ("user MB/s", "user_write_mean_mbs", "{:.2f}"),
        ("sys MB/s", "sys_write_mean_mbs", "{:.2f}"),
        ("software WA", "software_write_amplification", "{:.2f}x"),
        ("total WA", "total_write_amplification", "{:.2f}x"),
    )


def _fig9_arguments(parser) -> None:
    parser.add_argument("--days", type=int, default=10)


def _run_fig9(args) -> dict:
    from repro.workloads.month import run_fig9

    data, _system = run_fig9(args.days)
    return data


def _render_fig9(data: dict) -> None:
    _table(
        data["days"],
        ("day", "day"),
        ("dedup", "dedup_ratio", "{:.0%}"),
        ("update time", "update_time_s", "{:.1f}s"),
    )
    print(f"\nPearson r = {data['pearson_r']:.3f}")


def _month_arguments(parser) -> None:
    parser.add_argument("--days", type=int, default=6)
    parser.add_argument(
        "--pipelined", action="store_true",
        help="one train of all versions: overlap version N+1's generation "
        "with version N's delivery (default: trains of one)",
    )


def _run_month(args) -> dict:
    from repro.workloads.chaos import build_chaos_system, row
    from repro.workloads.month import MonthlyTrace, MonthlyTraceConfig

    schedule = MonthlyTrace(MonthlyTraceConfig(days=args.days)).days()
    # Version 1 is the bootstrap load; one more version per scheduled day.
    specs = [None] + [day.mutation_rate for day in schedule]
    # The backbone is fast enough that a version's delivery tail is a
    # fraction of the 5 s generation window — the regime where pipelining
    # generation against delivery actually shortens the month.
    system = build_chaos_system()
    # One engine, two arms: the month as one train, or as trains of one.
    trains = [specs] if args.pipelined else [[rate] for rate in specs]
    started = system.sim.now
    reports = [r for train in trains for r in system.run_pipelined_cycles(train)]
    makespan_s = system.sim.now - started
    return {
        "mode": "pipelined" if args.pipelined else "serial",
        "days": args.days,
        "cycles": [
            row(
                report, "version", "dedup_ratio", "update_time_s",
                "keys_delivered", "evicted_versions", "promoted", "stages",
            )
            for report in reports
        ],
        "makespan_s": makespan_s,
        "sum_update_time_s": sum(r.update_time_s for r in reports),
        "keys_delivered": sum(r.keys_delivered for r in reports),
    }


def _render_month(data: dict) -> None:
    _table(
        data["cycles"],
        ("version", "version"),
        ("dedup", "dedup_ratio", "{:.0%}"),
        ("update time", "update_time_s", "{:.1f}s"),
        ("keys", "keys_delivered", "{:,}"),
        ("promoted", "promoted", _yes_no),
    )
    print(
        f"\n{data['mode']} month: makespan {data['makespan_s']:.1f}s, "
        f"sum of update times {data['sum_update_time_s']:.1f}s"
    )


def _run_dedup_sweep(args) -> dict:
    from repro.bifrost.dedup import Deduplicator
    from repro.indexing.types import IndexDataset, IndexEntry, IndexKind
    from repro.workloads.kvtrace import make_value

    points = []
    for ratio in (0.0, 0.3, 0.5, 0.7, 0.9):
        deduplicator = Deduplicator()
        for version in (1, 2):
            dataset = IndexDataset(version=version)
            unchanged = int(200 * ratio)
            for index in range(200):
                key = f"k{index:04d}".encode()
                source = 1 if (version == 1 or index < unchanged) else version
                dataset.add(
                    IndexEntry(IndexKind.FORWARD, key, make_value(key, source, 2048))
                )
            result = deduplicator.process(dataset)
        points.append(
            {
                "duplicates": ratio,
                "dedup_ratio": result.dedup_ratio,
                "bandwidth_saving_ratio": result.bandwidth_saving_ratio,
            }
        )
    return {"points": points}


def _render_dedup_sweep(data: dict) -> None:
    _table(
        data["points"],
        ("duplicates", "duplicates", "{:.0%}"),
        ("dedup ratio", "dedup_ratio", "{:.0%}"),
        ("bandwidth saved", "bandwidth_saving_ratio", "{:.0%}"),
    )


# ----------------------------------------------------------------------
# report, observe
# ----------------------------------------------------------------------


def _report_arguments(parser) -> None:
    parser.add_argument("--output", default="REPORT.md")
    parser.add_argument("--days", type=int, default=8)


def _run_report(args) -> dict:
    from repro.analysis.report import (
        collect_sections,
        generate_report,
        sections_to_dict,
    )

    sections = collect_sections(days=args.days)
    with open(args.output, "w") as handle:
        handle.write(generate_report(sections))
    return {**sections_to_dict(sections), "output": args.output}


def _render_report(data: dict) -> None:
    print(f"wrote {data['output']}")


def _observe_arguments(parser) -> None:
    parser.add_argument("--cycles", type=int, default=2)
    parser.add_argument(
        "--trace-out", default=None,
        help="write the Chrome trace_event JSON here",
    )


def _run_observe(args) -> dict:
    from repro.obs.runner import observe_cycle

    observation = observe_cycle(cycles=args.cycles)
    data = observation.to_dict()
    if args.trace_out:
        _dump_json(observation.chrome_trace(), args.trace_out)
        data["trace_out"] = args.trace_out
    return data


def _render_observe(data: dict) -> None:
    _table(
        data["cycles"],
        ("version", "version"),
        ("dedup", "dedup_ratio", "{:.0%}"),
        ("bytes sent", "bytes_sent", "{:,}"),
        ("update time", "update_time_s", "{:.1f}s"),
        ("promoted", "promoted", _yes_no),
    )
    print()
    _table(
        data["stages"],
        ("stage", "stage"),
        ("spans", "count"),
        ("sim time", "total_s", "{:.3f}s"),
        ("share", "share", "{:.1%}"),
    )
    print()
    _table(
        [
            {"metric": name, "value": value}
            for name, value in sorted(data["highlights"].items())
        ],
        ("metric", "metric"),
        ("value", "value", "{:,.0f}"),
    )
    print(f"\n{data['span_count']} spans recorded")
    if "trace_out" in data:
        print(f"wrote Chrome trace to {data['trace_out']}")


# ----------------------------------------------------------------------
# bandwidth, serve
# ----------------------------------------------------------------------


def _bandwidth_arguments(parser) -> None:
    parser.add_argument(
        "--days", type=int, default=4,
        help="changed-value-heavy cycles after the bootstrap",
    )


def _run_bandwidth(args) -> dict:
    from repro.workloads.bandwidth import run_bandwidth

    return run_bandwidth(days=args.days)


def _render_bandwidth(data: dict) -> None:
    _table(
        [
            {"arm": name, "compression_ratio": 1.0, **arm}
            for name, arm in data["arms"].items()
        ],
        ("arm", "arm"),
        ("wire bytes", "wire_bytes_sent", "{:,}"),
        ("payload bytes", "payload_bytes_sent", "{:,}"),
        ("wire/payload", "compression_ratio", "{:.3f}"),
        ("keys", "keys_delivered", "{:,}"),
    )
    print(
        f"\nwire reduction beyond dedup: "
        f"{data['wire_reduction_ratio'] * 100:.1f}% "
        f"(vs raw: {data['wire_reduction_vs_raw'] * 100:.1f}%); "
        "delivered contents "
        + ("byte-identical" if data["delivered_digest_match"] else "DIFFER")
    )
    audit = data["audit"]
    print(
        f"audit: tiered {audit['tiered_full_hashes']:,} full hashes "
        f"vs naive {audit['naive_full_hashes']:,} "
        f"({audit['hash_ratio']:.1f}x fewer), "
        f"{audit['tiered_hashes_per_slice']:.1f} hashes/slice "
        f"(log2 bound {audit['log2_bound_per_slice']})"
    )


def _bandwidth_ok(data: dict) -> bool:
    return bool(data["delivered_digest_match"] and data["audit"]["clean"])


def _serve_arguments(parser) -> None:
    parser.add_argument(
        "--days", type=int, default=2,
        help="update cycles driven concurrently with serving",
    )
    parser.add_argument("--qps-per-node", type=float, default=60.0)
    parser.add_argument(
        "--duration", type=float, default=20.0,
        help="minimum serving window in simulated seconds",
    )
    parser.add_argument(
        "--window", type=float, default=0.002,
        help="coalescing window in simulated seconds",
    )
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument(
        "--depth", type=int, default=32,
        help="admitted queue depth per healthy replica before shedding",
    )
    parser.add_argument(
        "--slo", type=float, default=0.050,
        help="p99 latency target for admitted reads (simulated seconds)",
    )
    parser.add_argument(
        "--flash-multiplier", type=float, default=8.0,
        help="flash-crowd rate multiplier; 1 disables the surge",
    )
    parser.add_argument(
        "--updates", choices=("pipelined", "none"), default="pipelined",
        help="drive update cycles concurrent with serving, or serve only",
    )
    parser.add_argument(
        "--plan", default=None,
        help="optional chaos plan injected during the run",
    )
    parser.add_argument("--seed", type=int, default=23)


def _run_serve(args) -> dict:
    from repro.serving import ServingConfig
    from repro.workloads.serving import (
        FlashCrowdConfig,
        ServingWorkloadConfig,
        run_serving_bench,
    )

    flash = None
    if args.flash_multiplier > 1:
        flash = FlashCrowdConfig(multiplier=args.flash_multiplier)
    return run_serving_bench(
        ServingWorkloadConfig(
            days=args.days,
            qps_per_node=args.qps_per_node,
            duration_s=args.duration,
            flash=flash,
            updates=args.updates,
            plan=args.plan,
            serving=ServingConfig(
                coalesce_window_s=args.window,
                max_batch=args.max_batch,
                max_queue_depth_per_replica=args.depth,
                slo_p99_s=args.slo,
            ),
            seed=args.seed,
        )
    )


def _render_serve(data: dict) -> None:
    ablation = data["ablation"]
    fleet = data["workload"]["serving"]["fleet"]
    _table(
        [{"arm": arm, **ablation[arm]} for arm in ("per_key", "batched")],
        ("read path", "arm"),
        ("keys", "keys", "{:,}"),
        ("device time", "device_s", lambda s: f"{s * 1000:.2f}ms"),
        ("keys/s", "keys_per_device_s", "{:,.0f}"),
    )
    print(
        f"\nbatched speedup {ablation['speedup']:.2f}x, values "
        + ("byte-identical" if ablation["digests_match"] else "DIFFER")
    )
    latency = fleet.get("p99_s", 0.0)
    print(
        f"serving: {fleet['requests']:,} offered, "
        f"{fleet['admitted']:,} admitted, {fleet['shed']:,} shed "
        f"({fleet['shed_rate'] * 100:.1f}%), "
        f"{fleet['not_found']} not found"
    )
    print(
        f"latency: p99 {latency * 1000:.2f}ms vs SLO "
        f"{fleet['slo_p99_s'] * 1000:.0f}ms "
        f"({'met' if fleet['slo_met'] else 'MISSED'}); "
        f"{data['workload']['achieved_qps']:,.0f} qps achieved"
    )


def _serve_ok(data: dict) -> bool:
    from repro.workloads.serving import MIN_BATCHED_SPEEDUP

    ablation = data["ablation"]
    return bool(
        ablation["digests_match"]
        and ablation["speedup"] >= MIN_BATCHED_SPEEDUP
        and data["serving"]["fleet"]["slo_met"]
    )


# ----------------------------------------------------------------------
# chaos, health, rebalance
# ----------------------------------------------------------------------


def _chaos_arguments(parser) -> None:
    from repro.faults.plan import NAMED_PLANS

    parser.add_argument(
        "--plan", default="single-node-crash",
        help=f"a named plan ({', '.join(NAMED_PLANS)}) or raw plan text",
    )
    parser.add_argument(
        "--cycles", type=int, default=2,
        help="total update cycles (the first is the fault-free bootstrap)",
    )
    parser.add_argument(
        "--telemetry", action=argparse.BooleanOptionalAction, default=True,
        help="arm the telemetry plane (recorder + alerting + detection "
        "join); --no-telemetry runs the bare equivalence-pinned harness",
    )
    parser.add_argument(
        "--integrity", action=argparse.BooleanOptionalAction, default=True,
        help="run a tiered integrity audit after the faults drain; "
        "--no-integrity skips it",
    )
    parser.add_argument(
        "--wire", action="store_true",
        help="wire-encode slices (delta + DEFLATE) and report the "
        "wire-vs-payload byte accounting",
    )


def _run_chaos(args) -> dict:
    from repro.workloads.chaos import ChaosConfig, run_chaos

    return run_chaos(
        ChaosConfig(
            plan=args.plan, cycles=args.cycles, telemetry=args.telemetry,
            integrity=args.integrity, wire_encoding=args.wire,
        )
    ).data


def _render_chaos(data: dict) -> None:
    _table(
        data["cycles"],
        ("version", "version"),
        ("keys", "keys_delivered", "{:,}"),
        ("update time", "update_time_s", "{:.1f}s"),
        ("miss", "miss_ratio", "{:.2%}"),
        ("retx", "retransmissions"),
        ("promoted", "promoted", _yes_no),
    )
    availability = data["availability"]
    faults = data["faults"]
    transport = data["transport"]
    print(
        f"\nplan {data['plan']!r}: {data['fault_events']} fault event(s), "
        f"{faults['node_crashes']} crash(es), "
        f"{faults['link_partitions']} partition(s)"
    )
    print(
        f"availability: {availability['unavailable']}/"
        f"{availability['probes']} probe reads unavailable "
        f"({availability['unavailable_ratio'] * 100:.1f}%)"
    )
    print(
        f"repair: {faults['repair_keys']} keys / "
        f"{faults['repair_bytes']:,} bytes across "
        f"{faults['repair_runs']} run(s); time to re-protect "
        f"{faults['reprotect_last_s']:.2f}s "
        f"(worst {faults['reprotect_max_s']:.2f}s)"
    )
    print(
        f"transport: {transport['retransmits']} retransmit(s), "
        f"{transport['relay_failovers']} relay failover(s), "
        f"{transport['abandoned']} abandoned"
    )
    print(
        f"verification: {data['lost_acknowledged_keys']}/"
        f"{data['verified_keys']} acknowledged keys lost, "
        f"{data['under_replicated_final']} under-replicated"
    )
    if "integrity" in data:
        integrity = data["integrity"]
        print(
            f"integrity: {integrity['slices_audited']} slice audit(s), "
            f"{integrity['records_sampled']} record(s) sampled, "
            f"{integrity['full_hashes']} full hash(es); "
            f"{integrity['divergent_records']} divergent, "
            f"{integrity['records_repaired']} repaired "
            f"({'clean' if integrity['clean'] else 'DAMAGED'})"
        )
    if "bandwidth" in data:
        bandwidth = data["bandwidth"]
        print(
            f"bandwidth: {bandwidth['wire_bytes_sent']:,} wire bytes "
            f"for {bandwidth['payload_bytes_sent']:,} payload bytes "
            f"(slice streams {bandwidth['compression_ratio']:.3f} of "
            f"logical; {bandwidth['slices_parked']} parked)"
        )
    if "detection" in data:
        detection = data["detection"]
        print(
            f"detection: {detection['detected']}/"
            f"{detection['injected']} fault(s) detected "
            f"({detection['undetected_required']} required miss(es)); "
            f"MTTD mean {detection['mttd']['mean_s']:.2f}s, "
            f"MTTR mean {detection['mttr']['mean_s']:.2f}s"
        )


def _chaos_ok(data: dict) -> bool:
    """Nothing acknowledged was lost and — when the telemetry plane ran —
    every fault that had to be detected was (``repro health`` too)."""
    undetected = data.get("detection", {}).get("undetected_required", 0)
    return data["lost_acknowledged_keys"] == 0 and undetected == 0


def _health_arguments(parser) -> None:
    parser.add_argument(
        "--plan", default="single-node-crash",
        help="fault scenario, as in `repro chaos --plan`",
    )
    parser.add_argument("--cycles", type=int, default=3)
    parser.add_argument(
        "--interval", type=float, default=0.25,
        help="telemetry sampling interval (simulated seconds); bounds "
        "detection latency",
    )
    parser.add_argument(
        "--fast-window", type=float, default=1.0,
        help="fast burn-rate alert window (simulated seconds)",
    )
    parser.add_argument(
        "--slow-window", type=float, default=5.0,
        help="slow burn-rate alert window (simulated seconds)",
    )
    parser.add_argument(
        "--watch-interval", type=float, default=2.0,
        help="cadence of the periodic fleet summaries in the report",
    )
    parser.add_argument(
        "--top-k", type=int, default=10,
        help="hot operations kept in the per-stage profile",
    )
    parser.add_argument(
        "--flamegraph", action="store_true",
        help="include the flamegraph tree in the JSON report (large)",
    )
    parser.add_argument(
        "--out", default=None,
        help="also write the full JSON report to this file",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="write the Chrome trace (spans + alert/fault instants) here",
    )


def _run_health(args) -> dict:
    from repro.workloads.health import HealthConfig, run_health

    result = run_health(
        HealthConfig(
            plan=args.plan,
            cycles=args.cycles,
            sample_interval_s=args.interval,
            fast_window_s=args.fast_window,
            slow_window_s=args.slow_window,
            watch_interval_s=args.watch_interval,
            top_k=args.top_k,
            include_flamegraph=args.flamegraph,
        )
    )
    data = result.data
    if args.trace_out:
        _dump_json(result.chaos.system.tracer.to_chrome_trace(), args.trace_out)
        data["trace_out"] = args.trace_out
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return data


def _render_health(data: dict) -> None:
    detection = data["detection"]
    _table(
        detection["faults"],
        ("fault", "kind"),
        ("target", "target"),
        ("injected", "injected_at_s", "{:.2f}s"),
        ("detected by", "detected_by", lambda by: by or "UNDETECTED"),
        ("MTTD", "mttd_s", _seconds_or_dash),
        ("MTTR", "mttr_s", _seconds_or_dash),
    )
    print(
        f"\nplan {data['plan']!r}: {detection['detected']}/"
        f"{detection['injected']} fault(s) detected, "
        f"{detection['undetected_required']} required miss(es); "
        f"{len(data['alerts'])} alert(s) fired"
    )
    telemetry = data["telemetry"]
    print(
        f"telemetry: {telemetry['samples']} samples at "
        f"{telemetry['sample_interval_s']}s, windows "
        f"{telemetry['fast_window_s']}s/{telemetry['slow_window_s']}s; "
        f"fleet score {data['health']['fleet_score']:.2f}"
    )
    print()
    _table(
        data["watch"],
        ("at", "at_s", "{:.1f}s"),
        ("fleet", "fleet_score", "{:.2f}"),
        ("nodes down", "nodes_down"),
        ("alerts", "active_alerts"),
        ("firing", "alert_names", lambda names: ",".join(names) or "-"),
    )
    profile = data["profile"]
    print()
    _table(
        # ``top_ops`` was cut to --top-k of these same rows: show as many
        profile["stages"][: len(profile["top_ops"])],
        ("operation", "operation"),
        ("spans", "count"),
        ("total", "total_s", "{:.3f}s"),
        ("self", "self_s", "{:.3f}s"),
        ("device", "device_s", "{:.3f}s"),
        ("bytes", "bytes", "{:,.0f}"),
    )
    print(
        f"\nprofile: {profile['span_count']} spans, device busy "
        f"{profile['device_busy_s']:.3f}s, "
        f"{profile['bytes_moved']:,.0f} bytes moved"
    )
    if "trace_out" in data:
        print(f"wrote Chrome trace to {data['trace_out']}")


#: crash plan for ``repro rebalance --crash``: kill a node of the group
#: created by the scripted split while it is still receiving copies —
#: the hardest elastic fault (copy target dies mid-rebalance).
REBALANCE_CRASH_PLAN = "crash node=north-dc1/g1/n0 at=0.05 down=2"


def _rebalance_arguments(parser) -> None:
    parser.add_argument(
        "--days", type=int, default=10,
        help="scheduled days of the monthly trace (one update cycle each)",
    )
    parser.add_argument(
        "--plan", default="none",
        help="fault plan started when the scripted split begins (offsets "
        "relative to the split), or 'none'",
    )
    parser.add_argument(
        "--crash", action="store_true",
        help=f"shorthand for --plan {REBALANCE_CRASH_PLAN!r}: crash a "
        "freshly split group's node while it is receiving copies",
    )
    parser.add_argument(
        "--split-day", type=int, default=5,
        help="trace day whose cycle is followed by the scripted split",
    )
    parser.add_argument(
        "--bandwidth", type=float, default=4_000_000.0,
        help="migration copy budget in bytes per simulated second",
    )
    parser.add_argument(
        "--records-per-s", type=float, default=2000.0,
        help="migration copy budget in records per simulated second",
    )


def _run_rebalance(args) -> dict:
    from repro.workloads.rebalance import (
        RebalanceConfig,
        bench_entry,
        run_rebalance,
    )

    result = run_rebalance(
        RebalanceConfig(
            days=args.days,
            plan=REBALANCE_CRASH_PLAN if args.crash else args.plan,
            split_day=args.split_day,
            bandwidth_bps=args.bandwidth,
            max_records_per_s=args.records_per_s,
        )
    )
    return {**result.data, "entry": bench_entry(result.data)}


def _render_rebalance(data: dict) -> None:
    entry = data["entry"]
    _table(
        data["operations"],
        ("start", "started_at_s", "{:.2f}s"),
        ("dc", "dc"),
        ("op", "kind"),
        ("target", "target"),
        ("took", "duration_s", "{:.3f}s"),
    )
    fleet = data["fleet"]
    print(
        f"\nfleet: {fleet['start']['nodes']} nodes / "
        f"{fleet['start']['groups']} groups -> "
        f"{fleet['final']['nodes']} nodes / "
        f"{fleet['final']['groups']} groups over {data['days']} days "
        f"({len(data['operations'])} ops, "
        f"{len(data['decisions'])} autoscaler decisions)"
    )
    migration = data["migration"]
    print(
        f"moved {migration['keys_moved']:,} keys "
        f"({migration['records_copied']:,} records + "
        f"{migration['bases_copied']:,} chain bases, "
        f"{migration['bytes_moved']:,} bytes) in "
        f"{migration['total_move_s']:.2f}s simulated; "
        f"{migration['withdrawals']:,} stale copies withdrawn"
    )
    overall = data["read_latency"]["overall"]
    moving = data["read_latency"]["during_migration"]
    print(
        f"reads: p99 {overall['p99'] * 1e3:.3f}ms overall, "
        f"{moving['p99'] * 1e3:.3f}ms during migration "
        f"({moving['count']} of {overall['count']} probes mid-move, "
        f"{data['availability']['unavailable']} unavailable)"
    )
    if "faults" in data:
        faults = data["faults"]
        print(
            f"faults: {faults['node_crashes']} crash(es), "
            f"{faults['node_restarts']} restart(s), "
            f"{faults['repair_keys']} keys re-replicated"
        )
    for name, held in (
        ("zero acknowledged-key loss", entry["zero_loss"]),
        ("fully replicated at rest", entry["under_replicated_final"] == 0),
        ("no stale copy at rest", entry["over_replicated_final"] == 0),
        ("byte-identical vs static baseline", entry["digests_match"]),
    ):
        print(f"  [{'ok' if held else 'FAIL'}] {name}")


def _rebalance_ok(data: dict) -> bool:
    entry = data["entry"]
    return bool(
        entry["zero_loss"]
        and entry["under_replicated_final"] == 0
        and entry["over_replicated_final"] == 0
        and entry["digests_match"]
    )


#: name -> (help, add_arguments or None, run, render, ok)
COMMANDS = {
    "demo": (
        "QinDB semantics walkthrough",
        None, _run_demo, _render_demo, _always_ok,
    ),
    "fig5": (
        "engine write-amplification comparison",
        _fig5_arguments, _run_fig5, _render_fig5, _always_ok,
    ),
    "fig9": (
        "dedup vs update time mini-month",
        _fig9_arguments, _run_fig9, _render_fig9, _always_ok,
    ),
    "month": (
        "daily update cycles: trains of one, or one pipelined train",
        _month_arguments, _run_month, _render_month, _always_ok,
    ),
    "dedup-sweep": (
        "bandwidth saving across dup ratios",
        None, _run_dedup_sweep, _render_dedup_sweep, _always_ok,
    ),
    "report": (
        "write a paper-vs-measured markdown report",
        _report_arguments, _run_report, _render_report,
        lambda data: data["all_hold"],
    ),
    "observe": (
        "traced update cycles: stage breakdown + metrics",
        _observe_arguments, _run_observe, _render_observe, _always_ok,
    ),
    "bandwidth": (
        "wire-encoding bench: bytes on the wire across dedup x "
        "encoding arms, plus tiered-audit hashing economics",
        _bandwidth_arguments, _run_bandwidth, _render_bandwidth, _bandwidth_ok,
    ),
    "serve": (
        "query-serving workload: batched reads, admission control, SLO",
        _serve_arguments, _run_serve, _render_serve, _serve_ok,
    ),
    "chaos": (
        "an update cycle under a fault plan + recovery audit",
        _chaos_arguments, _run_chaos, _render_chaos, _chaos_ok,
    ),
    "health": (
        "fleet-health telemetry: alerts, MTTD/MTTR, per-stage profile",
        _health_arguments, _run_health, _render_health, _chaos_ok,
    ),
    "rebalance": (
        "a month with a growing fleet: trace-driven autoscaling, a "
        "scripted group split, zero-loss migration audit",
        _rebalance_arguments, _run_rebalance, _render_rebalance, _rebalance_ok,
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="DirectLoad reproduction experiments"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, *_rest) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_text)
        if add_arguments is not None:
            add_arguments(sub)
        sub.add_argument(
            "--json", action="store_true",
            help="emit machine-readable JSON instead of tables",
        )
    args = parser.parse_args(argv)
    _help, _add_arguments, run, render, ok = COMMANDS[args.command]
    data = run(args)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        render(data)
    return 0 if ok(data) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
