"""A month with a growing fleet: the elastic rebalancing workload.

Runs the diurnal monthly trace against the standard small system while
the fleet's shape changes *under* the traffic:

* a :class:`~repro.elastic.autoscaler.FleetAutoscaler` watches the
  ingest-byte rate through the telemetry plane and emits scale
  decisions — node joins on the heavy early-month days (the paper's 23%
  dedup dip is the load peak), node leaves in the light mid-month
  trough;
* one scripted **group split** mid-month exercises the slot-directory
  path (and anchors the optional fault plan, so the crash-mid-rebalance
  contract is tested exactly when data is moving);
* every applied operation runs as a throttled background
  :class:`~repro.elastic.migrator.Migrator` process, concurrent with
  the next day's update cycle, while a seeded probe measures read
  latency — the "read p99 during migration" number the paper's
  operational story needs.

The exit contract extends the chaos workload's:

* **zero acknowledged loss** — every key any cycle reported delivered
  is still readable after all rebalances (and faults) drain;
* **full replication** — no ``(key, version)`` ends under-replicated;
* **byte-identical equivalence** — replaying the run's topology-op log
  on a fresh fleet *before* ingesting the same month produces exactly
  the same stored state: migration moves bytes, never mutates them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.elastic import (
    AutoscalerConfig,
    FleetAutoscaler,
    MigrationStats,
    Migrator,
    MigratorConfig,
)
from repro.errors import ConfigError
from repro.faults import FaultInjector
from repro.obs.hist import LogHistogram
from repro.workloads.chaos import (
    arm_faults,
    arm_telemetry,
    availability,
    build_chaos_system,
    judge,
    quiesce,
    resolve_plan,
    row,
    start_probe,
)


@dataclass(frozen=True)
class RebalanceConfig:
    """One growing-fleet run's shape."""

    #: scheduled days of the monthly trace (each one update cycle)
    days: int = 10
    #: fault plan applied when the scripted split starts (offsets are
    #: relative to the split), or ``none``
    plan: str = "none"
    #: day whose cycle is followed by the scripted group split
    split_day: int = 5
    #: autoscaler bounds: a group never grows past this many nodes ...
    max_nodes_per_group: int = 5
    #: ... and never shrinks below the replica count (implicit)
    #: migration budget
    bandwidth_bps: float = 4_000_000.0
    max_records_per_s: float = 2000.0
    #: read-latency probe cadence (simulated seconds)
    probe_interval_s: float = 0.25
    probe_seed: int = 23
    #: telemetry sampling cadence feeding the autoscaler
    sample_interval_s: float = 0.5
    #: autoscaler thresholds over the ingest-byte rate (bytes/s); the
    #: defaults straddle the small system's heavy/light day rates
    #: (~175 kB/s lagging the early-month mutation peak, ~105 kB/s in
    #: the mid-month dedup trough)
    scale_up_above: float = 150_000.0
    scale_down_below: float = 115_000.0
    autoscale_window_s: float = 15.0
    #: roughly three simulated days at the small system's cycle length
    autoscale_cooldown_s: float = 15.0

    def __post_init__(self) -> None:
        if self.days < 2:
            raise ConfigError("need at least two scheduled days")
        if not 1 <= self.split_day <= self.days:
            raise ConfigError(
                f"split_day={self.split_day} outside schedule "
                f"[1, {self.days}]"
            )
        if self.max_nodes_per_group < 3:
            raise ConfigError("max_nodes_per_group must be >= 3")
        if self.probe_interval_s <= 0:
            raise ConfigError("probe interval must be positive")


@dataclass
class RebalanceRunResult:
    """The report plus live handles for tests to poke at."""

    data: Dict[str, object]
    system: object = field(repr=False, default=None)
    migrators: Dict[str, Migrator] = field(repr=False, default=None)
    autoscaler: Optional[FleetAutoscaler] = field(repr=False, default=None)
    injector: Optional[FaultInjector] = field(repr=False, default=None)
    recorder: object = field(repr=False, default=None)
    engine: object = field(repr=False, default=None)


# ----------------------------------------------------------------------
# Topology-op replay (the statically-provisioned baseline)
# ----------------------------------------------------------------------


def replay_operations(system, operations: List[Dict[str, object]]) -> None:
    """Apply a run's topology-op log to a fresh (empty) fleet.

    Each logged operation re-runs through a migrator on the new system,
    in the order it originally committed.  On an empty cluster every
    migration plan is empty, so each op completes in zero simulated
    time — the result is the *statically-provisioned* fleet the live
    run's final state must be byte-identical to.  Node and group names
    reproduce exactly because the clusters allocate indices in the same
    order they originally did.
    """
    migrators = {
        dc: Migrator(system.sim, cluster)
        for dc, cluster in system.clusters.items()
    }
    for record in operations:
        migrator = migrators[record["dc"]]
        cluster = migrator.cluster
        kind = record["kind"]
        if kind == "join":
            group_id = int(record["target"][1:])
            proc = migrator.join_node(cluster.group_by_id(group_id))
        elif kind == "leave":
            group_spec, _slash, _name = record["target"].partition("/")
            proc = migrator.leave_node(
                cluster.group_by_id(int(group_spec[1:])),
                record["node"],
            )
        elif kind == "split":
            group_id = int(record["target"][1:])
            proc = migrator.split_group(cluster.group_by_id(group_id))
        elif kind == "merge":
            source_spec, _arrow, target_spec = record["target"].partition(
                "->"
            )
            proc = migrator.merge_group(
                cluster.group_by_id(int(source_spec[1:])),
                cluster.group_by_id(int(target_spec[1:])),
            )
        else:  # pragma: no cover - the migrator only logs these kinds
            raise ConfigError(f"unknown topology op kind {kind!r}")
        system.sim.run(until=proc)


def run_baseline(
    rates: List[Optional[float]], operations: List[Dict[str, object]]
):
    """The statically-provisioned twin: final topology first, then the
    same month of cycles.  Returns the system for digest comparison."""
    system = build_chaos_system()
    replay_operations(system, operations)
    for rate in rates:
        system.run_update_cycle(mutation_rate=rate)
    return system


# ----------------------------------------------------------------------
# The live run
# ----------------------------------------------------------------------


def _fleet_shape(system) -> Dict[str, object]:
    return {
        "groups": sum(
            len(cluster.groups) for cluster in system.clusters.values()
        ),
        "nodes": sum(
            len(group.nodes)
            for cluster in system.clusters.values()
            for group in cluster.groups
        ),
    }


def _apply_decision(
    decision, cluster, migrator, config: RebalanceConfig
) -> Optional[object]:
    """One scale decision on one cluster; returns the op process."""
    if decision.direction == "up":
        group = min(cluster.groups, key=lambda g: (len(g.nodes), g.group_id))
        if len(group.nodes) >= config.max_nodes_per_group:
            return None
        return migrator.join_node(group)
    group = max(cluster.groups, key=lambda g: (len(g.nodes), -g.group_id))
    if len(group.nodes) <= cluster.config.replica_count:
        return None
    return migrator.leave_node(group, group.nodes[-1].name)


def run_rebalance(
    config: RebalanceConfig | None = None, tracing: bool = True
) -> RebalanceRunResult:
    """Run the growing-fleet month; see the module docstring."""
    from repro.obs.health import health_scores
    from repro.workloads.bandwidth import fleet_digest
    from repro.workloads.month import MonthlyTrace, MonthlyTraceConfig

    config = config or RebalanceConfig()
    plan = resolve_plan(config.plan)
    system = build_chaos_system(tracing=tracing)
    sim = system.sim
    shape_start = _fleet_shape(system)

    # The autoscaler's signal: ingest volume as delivered payload bytes.
    # Deliberately *not* a storage-side counter — migration's own copies
    # would feed back into the signal and self-amplify scale-ups.
    system.metrics.register(
        "elastic.load.ingest_bytes",
        lambda: system.transport.total_payload_bytes_sent,
    )

    recorder, engine = arm_telemetry(system, config.sample_interval_s)
    autoscaler = FleetAutoscaler(
        recorder,
        AutoscalerConfig(
            window_s=config.autoscale_window_s,
            scale_up_above=config.scale_up_above,
            scale_down_below=config.scale_down_below,
            cooldown_s=config.autoscale_cooldown_s,
        ),
        engine=engine,
    )

    migrator_config = MigratorConfig(
        bandwidth_bps=config.bandwidth_bps,
        max_records_per_s=config.max_records_per_s,
    )
    migrators = {
        dc: Migrator(
            sim, cluster, migrator_config, tracer=system.tracer
        )
        for dc, cluster in system.clusters.items()
    }

    injector = arm_faults(system)

    wall_started = time.perf_counter()
    bootstrap = system.run_update_cycle()
    recorder.start()

    # ------------------------------------------------------------------
    # Read-latency probe: seeded reads against the *newest* live version
    # (older versions retire as the month progresses), timed per probe
    # and split into during-migration vs not.
    # ------------------------------------------------------------------
    latency_all = LogHistogram(min_value=1e-6, max_value=10.0)
    latency_moving = LogHistogram(min_value=1e-6, max_value=10.0)
    rng = random.Random(config.probe_seed)
    dcs = sorted(system.clusters)

    def pick():
        cluster = system.clusters[dcs[rng.randrange(len(dcs))]]
        if not cluster.version_keys:
            return None
        version = max(cluster.version_keys)
        keys = cluster.version_keys[version]
        return cluster, keys[rng.randrange(len(keys))], version

    def on_served(cluster, service_s: float) -> None:
        latency_all.add(service_s)
        # A synchronous get runs no events: still as idle as before it.
        if not migrators[cluster.name].idle:
            latency_moving.add(service_s)

    probe = start_probe(system, config.probe_interval_s, pick, on_served)

    # ------------------------------------------------------------------
    # The month: one cycle per scheduled day; between cycles, apply the
    # newest autoscaler decision fleet-wide (when every migrator is
    # idle) and fire the scripted split + fault plan after split_day.
    # ------------------------------------------------------------------
    schedule = MonthlyTrace(MonthlyTraceConfig(days=config.days)).days()
    rates: List[Optional[float]] = [day.mutation_rate for day in schedule]
    cycle_rows: List[Dict[str, object]] = []
    op_processes: List[object] = []
    deferred = 0
    held_at_bounds = 0

    def drain_operations() -> None:
        for proc in op_processes:
            if not proc.processed:
                sim.run(until=proc)

    for day, rate in zip(schedule, rates):
        report = system.run_update_cycle(mutation_rate=rate)
        cycle_rows.append(
            {
                "day": day.day,
                "mutation_rate": round(rate, 4),
                "dedup_ratio": round(day.dedup_ratio, 4),
                **row(report, "version", "keys_delivered", "update_time_s"),
            }
        )
        if day.day == config.split_day:
            # The scripted split: drain any in-flight scale op first so
            # the split (and the fault plan anchored to it) always runs.
            drain_operations()
            if plan.events:
                injector.start(plan)
            for dc, migrator in migrators.items():
                op_processes.append(
                    migrator.split_group(migrator.cluster.groups[0])
                )
            continue
        decisions = autoscaler.take_pending()
        if not decisions:
            continue
        if not all(m.idle for m in migrators.values()):
            deferred += len(decisions)
            continue
        deferred += len(decisions) - 1
        decision = decisions[-1]  # newest wins; older ones are stale
        for dc, migrator in migrators.items():
            proc = _apply_decision(
                decision, migrator.cluster, migrator, config
            )
            if proc is None:
                held_at_bounds += 1
            else:
                op_processes.append(proc)

    # Drain: every rebalance, then every fault, runs to completion.
    drain_operations()
    quiesce(system, injector, probe, recorder)
    wall_s = time.perf_counter() - wall_started

    # Contracts: zero acknowledged loss, full replication, equivalence.
    contracts = judge(system, [cycle["version"] for cycle in cycle_rows])
    # No item live beyond the replica count: a copy a withdrawal missed.
    contracts["over_replicated_final"] = sum(
        len(cluster.over_replicated()) for cluster in system.clusters.values()
    )

    operations: List[Dict[str, object]] = []
    for dc, migrator in migrators.items():
        for record in migrator.log:
            operations.append({"dc": dc, **record})
    operations.sort(key=lambda op: (op["started_at_s"], op["dc"]))

    live_digest = fleet_digest(system)
    baseline_system = run_baseline([None] + rates, operations)
    baseline_digest = fleet_digest(baseline_system)

    stats = MigrationStats()
    for migrator in migrators.values():
        for name, value in migrator.stats.to_dict().items():
            setattr(stats, name, getattr(stats, name) + value)

    data: Dict[str, object] = {
        "days": config.days,
        "plan": plan.name,
        "fault_events": len(plan.events),
        "split_day": config.split_day,
        "cycles": cycle_rows,
        "operations": operations,
        "decisions": autoscaler.to_dicts(),
        "autoscaler": {
            "decisions": len(autoscaler.decisions),
            "holds": autoscaler.holds,
            "deferred": deferred,
            "held_at_bounds": held_at_bounds,
        },
        "migration": stats.to_dict(),
        "fleet": {
            "start": shape_start,
            "final": _fleet_shape(system),
        },
        "read_latency": {
            "overall": latency_all.quantiles(),
            "during_migration": latency_moving.quantiles(),
        },
        "availability": availability(probe),
        **contracts,
        "equivalence": {
            "live_digest": live_digest,
            "baseline_digest": baseline_digest,
            "digests_match": live_digest == baseline_digest,
        },
        "health": health_scores(recorder.samples[-1][1]),
        "telemetry": {
            "samples": recorder.sample_count,
            "sample_interval_s": config.sample_interval_s,
        },
        "wall_s": round(wall_s, 4),
    }
    if plan.events:
        data["faults"] = row(
            injector.counters,
            "node_crashes", "node_restarts", "repair_runs", "repair_keys",
        )
    return RebalanceRunResult(
        data=data,
        system=system,
        migrators=migrators,
        autoscaler=autoscaler,
        injector=injector,
        recorder=recorder,
        engine=engine,
    )


# ----------------------------------------------------------------------
# The report summary
# ----------------------------------------------------------------------


def bench_entry(data: Dict[str, object]) -> Dict[str, object]:
    """Distil a full ``run_rebalance`` report into its headline movement,
    read-latency and contract numbers."""
    migration = data["migration"]
    return {
        "days": data["days"],
        "plan": data["plan"],
        "operations": migration["operations"],
        "keys_moved": migration["keys_moved"],
        "records_copied": migration["records_copied"],
        "bytes_moved": migration["bytes_moved"],
        "move_duration_s": round(migration["total_move_s"], 4),
        "read_p99_s": round(
            data["read_latency"]["overall"]["p99"], 6
        ),
        "read_p99_during_move_s": round(
            data["read_latency"]["during_migration"]["p99"], 6
        ),
        "moving_reads": int(
            data["read_latency"]["during_migration"]["count"]
        ),
        "nodes_final": data["fleet"]["final"]["nodes"],
        "groups_final": data["fleet"]["final"]["groups"],
        "zero_loss": data["lost_acknowledged_keys"] == 0,
        "under_replicated_final": data["under_replicated_final"],
        "over_replicated_final": data["over_replicated_final"],
        "digests_match": data["equivalence"]["digests_match"],
        "wall_s": data["wall_s"],
    }


__all__ = [
    "RebalanceConfig",
    "RebalanceRunResult",
    "replay_operations",
    "run_baseline",
    "run_rebalance",
]
