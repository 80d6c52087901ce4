"""Chaos runs: an update cycle under a fault plan, with availability
accounting.

The workload stands up the standard small DirectLoad system, bootstraps
version 1, then runs the remaining cycles with a
:class:`~repro.faults.injector.FaultInjector` executing the plan and a
seeded availability probe reading bootstrap keys at a fixed cadence.
After the faults drain it verifies the chaos contract:

* **zero acknowledged loss** — every key a faulted cycle reported
  delivered is still readable through the normal read path;
* **full re-protection** — no ``(key, version)`` is left with fewer than
  ``replica_count`` live copies.

A run under the empty plan (``none``) must leave the fleet byte-identical
to a plain :meth:`~repro.core.directload.DirectLoad.run_update_cycle`
sequence — the equivalence test pins the chaos harness itself to zero
side effects.

This module is also where the experiment layer's one shape lives.  Every
fleet experiment (``run_chaos`` here, ``run_rebalance``, ``run_serving``,
``run_health``, the bandwidth arms, ``observe_cycle``, fig9 and the
quick report) is **build** (:func:`build_chaos_system`, the only place a
small fleet's config is written) → **arm** (:func:`arm_faults`,
:func:`arm_telemetry`, :func:`start_probe`) → **drive** (update cycles)
→ **quiesce** (:func:`quiesce`) → **judge** (:func:`judge`, plus the
report sections :func:`row`, :func:`availability`, :func:`wire_stats`,
:func:`transport_bytes`, :func:`audit_fleet`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ConfigError, KeyNotFoundError, ReplicationError
from repro.faults import FaultInjector, FaultPlan


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos run's shape."""

    #: a name from :data:`repro.faults.plan.NAMED_PLANS`, or raw plan
    #: text (anything containing ``=`` parses as clauses)
    plan: str = "single-node-crash"
    #: total update cycles; the first is the fault-free bootstrap, the
    #: plan's offsets are relative to the start of the second
    cycles: int = 2
    #: corpus mutation rate of the faulted cycles
    mutation_rate: float = 0.3
    #: availability probe cadence (simulated seconds between reads)
    probe_interval_s: float = 0.25
    probe_seed: int = 17
    #: arm the telemetry plane: a metrics recorder + alert engine run
    #: alongside the faults and the report gains ``alerts`` /
    #: ``detection`` / ``health`` sections.  Off by default so a bare
    #: chaos run stays byte-identical to the pinned equivalence digests.
    telemetry: bool = False
    #: telemetry sampling cadence — bounds detection latency
    sample_interval_s: float = 0.25
    #: burn-rate alert windows (fast catches, slow suppresses blips)
    fast_window_s: float = 1.0
    slow_window_s: float = 5.0
    #: run a tiered integrity audit of every cluster after the faults
    #: drain; the report gains an ``integrity`` section.  Off by default
    #: (same digest-stability reason as ``telemetry``).
    integrity: bool = False
    #: wire-encode slices (:mod:`repro.bifrost.encoding`); the report
    #: gains a ``bandwidth`` section with wire vs payload bytes
    wire_encoding: bool = False

    def __post_init__(self) -> None:
        if self.cycles < 2:
            raise ConfigError("need at least bootstrap + one faulted cycle")
        if self.probe_interval_s <= 0:
            raise ConfigError("probe interval must be positive")
        if self.sample_interval_s <= 0:
            raise ConfigError("sample interval must be positive")


@dataclass
class ChaosRunResult:
    """The report plus live handles for tests to poke at."""

    data: Dict[str, object]
    system: object = field(repr=False, default=None)
    injector: Optional[FaultInjector] = field(repr=False, default=None)
    #: set when the run had ``telemetry=True``
    recorder: object = field(repr=False, default=None)
    engine: object = field(repr=False, default=None)


def build_chaos_system(
    tracing: bool = True,
    dedup: bool = True,
    wire_encoding: bool = False,
    group_count: int = 1,
    backbone_bps: float = 1_000_000.0,
):
    """The standard small system every chaos scenario is written against,
    and the one the month, fig9, bandwidth, serving, rebalance, observe
    and quick-report experiments run on.

    Three regions, ``group_count`` groups of three nodes per data center
    (one by default; serving uses two so ``multi_get`` partitions), a
    backbone slow enough that deliveries overlap the scheduled faults
    and the next generation window.  ``tracing=False`` runs the same
    fleet on the null-tracer path; ``dedup`` and ``wire_encoding``
    select the bandwidth layers.
    """
    from repro.bifrost.channels import TopologyConfig
    from repro.core.config import DirectLoadConfig
    from repro.core.directload import DirectLoad
    from repro.mint.cluster import MintConfig

    return DirectLoad(
        DirectLoadConfig(
            tracing_enabled=tracing,
            dedup_enabled=dedup,
            wire_encoding=wire_encoding,
            doc_count=80,
            vocabulary_size=300,
            doc_length=20,
            summary_value_bytes=1024,
            forward_value_bytes=256,
            slice_bytes=32 * 1024,
            generation_window_s=5.0,
            topology=TopologyConfig(backbone_bps=backbone_bps),
            mint=MintConfig(
                group_count=group_count, nodes_per_group=3,
                node_capacity_bytes=64 * 1024 * 1024,
            ),
        )
    )


def resolve_plan(spec: str) -> FaultPlan:
    """A plan from a registry name or raw clause text."""
    if "=" in spec:
        return FaultPlan.parse(spec, name="inline")
    return FaultPlan.named(spec)


def fleet_state(system) -> Dict:
    """The stored *representation* of every replica of every live key.

    Maps ``(dc, node, key, version)`` to ``(value, deduplicated)`` — the
    byte-identical-equivalence witness: a repaired fleet and a never-
    faulted fleet must produce exactly the same mapping.
    """
    state: Dict = {}
    for dc, cluster in system.clusters.items():
        for version in sorted(cluster.version_keys):
            for key in set(cluster.version_keys[version]):
                group = cluster.group_for(key)
                for node in group.replicas_for(key):
                    state[(dc, node.name, key, version)] = node.engine.peek(
                        key, version
                    )
    return state


# ----------------------------------------------------------------------
# The scenario steps every fleet experiment shares:
# build -> arm -> drive -> quiesce -> judge
# ----------------------------------------------------------------------


def arm_faults(system) -> FaultInjector:
    """The workloads' one fault injector, counters registered; the
    caller starts its plan at the moment the offsets are relative to."""
    injector = FaultInjector(
        system.sim,
        system.clusters,
        system.topology,
        system.transport,
        tracer=system.tracer,
    )
    injector.register_metrics(system.metrics)
    return injector


def arm_telemetry(system, sample_interval_s: float, burn_rules=None):
    """A metrics recorder and the alert engine over it (``burn_rules``
    None = the engine's defaults); the caller starts the recorder."""
    from repro.obs.health import HealthEngine
    from repro.obs.timeseries import RecorderConfig, TimeSeriesRecorder

    recorder = TimeSeriesRecorder(
        system.sim, system.metrics, RecorderConfig(interval_s=sample_interval_s)
    )
    engine = HealthEngine(
        recorder, burn_rules=burn_rules, tracer=system.tracer
    )
    return recorder, engine


def start_probe(
    system, interval_s: float, pick, on_served=None
) -> Dict[str, object]:
    """Start a fixed-cadence availability probe; returns its counters.

    Every ``interval_s`` the probe asks ``pick()`` for one
    ``(cluster, key, version)`` (``None`` sits the tick out) and reads it
    through the normal path.  Pure read traffic (only device clocks
    advance), so a probed run's stored state stays identical to an
    unprobed one.  ``on_served(cluster, service_s)`` receives each
    successful read's service time: the largest device-clock advance the
    synchronous get caused (the serving tier's accounting trick).
    :func:`quiesce` stops the loop.
    """
    sim = system.sim
    counters: Dict[str, object] = {
        "probes": 0, "unavailable": 0, "stopped": False,
    }

    def loop():
        while not counters["stopped"]:
            target = pick()
            if target is not None:
                cluster, key, version = target
                if on_served is not None:
                    nodes = [
                        node for group in cluster.groups for node in group.nodes
                    ]
                    before = [node.engine.device.now for node in nodes]
                counters["probes"] += 1
                try:
                    cluster.get(key, version)
                except (ReplicationError, KeyNotFoundError):
                    counters["unavailable"] += 1
                else:
                    if on_served is not None:
                        on_served(
                            cluster,
                            max(
                                (
                                    node.engine.device.now - was
                                    for node, was in zip(nodes, before)
                                ),
                                default=0.0,
                            ),
                        )
            yield sim.timeout(interval_s)

    sim.process(loop())
    return counters


def quiesce(system, injector, probe=None, recorder=None) -> None:
    """Let the run settle before it is judged.

    A cycle's drive stops at its own delivery tail; faults scheduled
    past it (a long outage, a late heal) still need to run to completion
    first.  Then the probe stops, and the recorder takes one closing
    sample so the final fleet state (everything healed) lands in the
    ring and still-open alerts get a chance to resolve.
    """
    pending = [p for p in injector.processes if not p.processed]
    if pending:
        system.sim.run(until=system.sim.all_of(pending))
    if probe is not None:
        probe["stopped"] = True
    if recorder is not None:
        recorder.stop()
        recorder.sample_now()


def judge(system, versions) -> Dict[str, int]:
    """The two exit contracts, as report fields: every key of every
    acknowledged version in ``versions`` still reads back through the
    normal path, and no ``(key, version)`` is under-replicated."""
    verified = lost = 0
    for version in versions:
        for cluster in system.clusters.values():
            for key in set(cluster.version_keys.get(version, [])):
                verified += 1
                try:
                    cluster.get(key, version)
                except (ReplicationError, KeyNotFoundError):
                    lost += 1
    return {
        "verified_keys": verified,
        "lost_acknowledged_keys": lost,
        "under_replicated_final": sum(
            len(cluster.under_replicated())
            for cluster in system.clusters.values()
        ),
    }


def audit_fleet(system, naive: bool = False):
    """One integrity audit of every cluster, merged: the tiered audit,
    or the ``naive`` re-hash-everything baseline."""
    from repro.faults.repair import AuditResult, ReplicaRepairer

    repairer = ReplicaRepairer()
    audit = AuditResult()
    for cluster in system.clusters.values():
        audit.merge(repairer.audit_cluster(cluster, naive=naive))
    return audit


def row(source, *names: str) -> Dict[str, object]:
    """The named attributes of ``source`` as a report row — a cycle
    report's columns, an injector's counters."""
    return {name: getattr(source, name) for name in names}


def availability(probe: Dict[str, object]) -> Dict[str, object]:
    """A probe's counters as the report's ``availability`` section."""
    probes = probe["probes"]
    return {
        "probes": probes,
        "unavailable": probe["unavailable"],
        "unavailable_ratio": probe["unavailable"] / probes if probes else 0.0,
    }


def transport_bytes(system) -> Dict[str, int]:
    """Wire-vs-logical bytes the transport sent (equal unless wire
    encoding is on)."""
    return {
        "wire_bytes_sent": system.transport.total_wire_bytes_sent,
        "payload_bytes_sent": system.transport.total_payload_bytes_sent,
    }


def wire_stats(system) -> Dict[str, object]:
    """The wire codec's byte and CPU accounting across the fleet."""
    stats = system.wire_encoder.stats
    clusters = system.clusters.values()
    return {
        **row(
            stats, "payload_bytes", "wire_bytes", "bytes_saved",
            "compression_ratio", "encode_cpu_s",
        ),
        "decode_cpu_s": sum(c.wire_decoder.stats.decode_cpu_s for c in clusters),
        **transport_bytes(system),
        "slices_parked": sum(c.slices_parked for c in clusters),
        "slices_unparked": sum(c.slices_unparked for c in clusters),
    }


def run_chaos(
    config: ChaosConfig | None = None, tracing: bool = True
) -> ChaosRunResult:
    """Run the chaos workload; see the module docstring for the contract."""
    config = config or ChaosConfig()
    plan = resolve_plan(config.plan)
    system = build_chaos_system(
        tracing=tracing, wire_encoding=config.wire_encoding
    )
    bootstrap = system.run_update_cycle()
    injector = arm_faults(system)

    # Seeded reads of bootstrap keys across the fleet.  The probe only
    # runs when faults are actually scheduled: under the empty plan the
    # run must be byte-identical to plain cycles, so no extra processes
    # touch the fleet at all.
    rng = random.Random(config.probe_seed)
    targets = [
        (cluster, key, bootstrap.version)
        for cluster in system.clusters.values()
        for key in cluster.version_keys.get(bootstrap.version, [])
    ]
    if plan.events and targets:
        probe = start_probe(
            system,
            config.probe_interval_s,
            lambda: targets[rng.randrange(len(targets))],
        )
    else:
        probe = {"probes": 0, "unavailable": 0}
    system.metrics.register_many(
        "faults.reads",
        {
            "probes": lambda: probe["probes"],
            "unavailable": lambda: probe["unavailable"],
            "unavailable_ratio": lambda: availability(probe)["unavailable_ratio"],
        },
    )

    recorder = engine = None
    if config.telemetry:
        from repro.obs.health import (
            default_burn_rules,
            health_scores,
            join_detections,
        )

        recorder, engine = arm_telemetry(
            system,
            config.sample_interval_s,
            default_burn_rules(config.fast_window_s, config.slow_window_s),
        )
        recorder.start()

    injector.start(plan)
    faulted_reports = [
        system.run_update_cycle(mutation_rate=config.mutation_rate)
        for _ in range(config.cycles - 1)
    ]
    quiesce(system, injector, probe, recorder)

    transport = system.transport
    data: Dict[str, object] = {
        "plan": plan.name,
        "fault_events": len(plan.events),
        "cycles": [
            row(
                report, "version", "keys_delivered", "update_time_s",
                "miss_ratio", "retransmissions", "promoted",
            )
            for report in [bootstrap] + faulted_reports
        ],
        "availability": availability(probe),
        "faults": row(
            injector.counters,
            "node_crashes", "node_restarts", "group_outages",
            "link_partitions", "corruption_bursts", "repair_runs",
            "repair_keys", "repair_bytes", "repair_deletes",
            "repair_remote_copies", "reprotect_last_s", "reprotect_max_s",
        ),
        "transport": {
            "retransmits": transport.total_retransmissions,
            "abandoned": transport.total_abandoned,
            "relay_failovers": transport.total_relay_failovers,
        },
        **judge(system, [report.version for report in faulted_reports]),
    }
    if config.integrity:
        data["integrity"] = row(
            audit_fleet(system), "slices_audited", "records_sampled", "full_hashes",
            "divergent_records", "records_repaired", "clean",
        )
    if config.wire_encoding:
        data["bandwidth"] = wire_stats(system)
    if engine is not None:
        data["alerts"] = engine.to_dicts()
        # One sampling interval of grace past each heal: an alert for a
        # fault healed between two samples fires at the *next* sample.
        data["detection"] = join_detections(
            injector.timeline,
            engine.alerts,
            grace_s=config.sample_interval_s,
        )
        data["health"] = health_scores(recorder.samples[-1][1])
        data["telemetry"] = {
            "samples": recorder.sample_count,
            "sample_interval_s": config.sample_interval_s,
            "evaluations": engine.evaluations,
            "fast_window_s": config.fast_window_s,
            "slow_window_s": config.slow_window_s,
        }
    return ChaosRunResult(
        data=data,
        system=system,
        injector=injector,
        recorder=recorder,
        engine=engine,
    )


def run_plain_cycles(cycles: int, mutation_rate: float) -> object:
    """The unfaulted twin of :func:`run_chaos`, for equivalence checks."""
    system = build_chaos_system()
    system.run_update_cycle()
    for _ in range(cycles - 1):
        system.run_update_cycle(mutation_rate=mutation_rate)
    return system


__all__ = [
    "ChaosConfig",
    "ChaosRunResult",
    "arm_faults",
    "arm_telemetry",
    "audit_fleet",
    "availability",
    "build_chaos_system",
    "fleet_state",
    "judge",
    "quiesce",
    "resolve_plan",
    "row",
    "run_chaos",
    "run_plain_cycles",
    "start_probe",
    "transport_bytes",
    "wire_stats",
]
