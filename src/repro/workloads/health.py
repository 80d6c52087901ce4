"""The fleet-health workload behind ``repro health``.

Runs a chaos scenario with the full telemetry plane armed — time-series
recorder, burn-rate alert engine, fault/alert detection join — then
folds in what the other planes saw: the per-stage resource profile over
the tracer's spans and a ``--watch``-style timeline of periodic fleet
summaries reconstructed from the recorder's ring (fleet score and active
alerts at a coarser cadence than the sampling interval, the view an
operator tailing the run would have seen).

The exit contract mirrors the chaos workload's: a healthy telemetry
setup detects every crash/outage/partition it injected
(``undetected_required == 0``) and the fleet loses nothing it
acknowledged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigError
from repro.obs.health import health_scores
from repro.obs.profiler import flamegraph, profile_tracer
from repro.workloads.chaos import (
    ChaosConfig,
    ChaosRunResult,
    run_chaos,
    transport_bytes,
)


@dataclass(frozen=True)
class HealthConfig:
    """One health run's shape (a telemetered chaos run plus reporting)."""

    #: fault scenario, as in :class:`~repro.workloads.chaos.ChaosConfig`
    plan: str = "single-node-crash"
    cycles: int = 3
    #: telemetry sampling cadence — bounds detection latency
    sample_interval_s: float = 0.25
    #: burn-rate alert windows
    fast_window_s: float = 1.0
    slow_window_s: float = 5.0
    #: cadence of the reconstructed watch timeline
    watch_interval_s: float = 2.0
    #: hot operations kept in the profile
    top_k: int = 10
    #: include the flamegraph tree in the report (large)
    include_flamegraph: bool = False

    def __post_init__(self) -> None:
        if self.watch_interval_s <= 0:
            raise ConfigError("watch interval must be positive")
        if self.top_k < 1:
            raise ConfigError("top_k must be >= 1")


@dataclass
class HealthRunResult:
    """The health report plus the underlying chaos run's handles."""

    data: Dict[str, object]
    chaos: ChaosRunResult = field(repr=False, default=None)


def watch_timeline(
    recorder, alerts, interval_s: float
) -> List[Dict[str, object]]:
    """Periodic fleet summaries replayed from the recorder's ring.

    One row per ``interval_s`` of recorded history: the fleet score at
    that instant plus how many alerts were active — what a ``--watch``
    session polling the engine would have printed, reconstructed after
    the fact so the run itself pays no extra sampling.
    """
    rows: List[Dict[str, object]] = []
    next_at: Optional[float] = None
    for at, values in recorder.samples:
        if next_at is not None and at < next_at:
            continue
        next_at = at + interval_s
        scores = health_scores(values)
        active = [
            alert for alert in alerts
            if alert.at_s <= at
            and (alert.resolved_at_s is None or alert.resolved_at_s > at)
        ]
        rows.append(
            {
                "at_s": at,
                "fleet_score": scores["fleet_score"],
                "nodes_down": sum(
                    1 for score in scores["nodes"].values() if score < 1.0
                ),
                "active_alerts": len(active),
                "alert_names": sorted({alert.name for alert in active}),
                "probes": values.get("faults.reads.probes", 0.0),
                "unavailable": values.get("faults.reads.unavailable", 0.0),
                # Elastic rebalance state: keys still awaiting migration
                # and per-group membership, so watching a rebalance run
                # shows the backlog draining alongside any faults.
                "moving_keys": scores["elastic"]["moving_keys"],
                "members": {
                    target: gauges.get("members", 0.0)
                    for target, gauges in scores["elastic"]["groups"].items()
                },
            }
        )
    return rows


def run_health(config: HealthConfig | None = None) -> HealthRunResult:
    """Run the telemetered chaos scenario and assemble the health report."""
    config = config or HealthConfig()
    chaos = run_chaos(
        ChaosConfig(
            plan=config.plan,
            cycles=config.cycles,
            telemetry=True,
            integrity=True,
            sample_interval_s=config.sample_interval_s,
            fast_window_s=config.fast_window_s,
            slow_window_s=config.slow_window_s,
        )
    )
    source = chaos.data
    data: Dict[str, object] = {
        **{
            section: source[section]
            for section in (
                "plan", "fault_events", "availability", "verified_keys",
                "lost_acknowledged_keys", "under_replicated_final", "alerts",
                "detection", "health", "telemetry", "integrity",
            )
        },
        # Wire-vs-logical byte accounting (equal unless wire encoding on)
        "bandwidth": transport_bytes(chaos.system),
        "profile": profile_tracer(chaos.system.tracer, top_k=config.top_k),
        "watch": watch_timeline(
            chaos.recorder, chaos.engine.alerts, config.watch_interval_s
        ),
    }
    if config.include_flamegraph:
        data["flamegraph"] = flamegraph(chaos.system.tracer)
    return HealthRunResult(data=data, chaos=chaos)


__all__ = [
    "HealthConfig",
    "HealthRunResult",
    "run_health",
    "watch_timeline",
]
