"""Fleet health scoring and multi-window SLO burn-rate alerting.

Two rule kinds run against the :class:`~repro.obs.timeseries.TimeSeriesRecorder`
stream, evaluated synchronously after every sample (detection latency is
therefore bounded by the sampling interval):

* :class:`GaugeRule` — threshold alerts on live gauges, scanned by
  dotted-name pattern (``mint.*.up`` below 0.5 fires ``node_down`` per
  node; ``bifrost.link.*.partitioned`` above 0.5 fires
  ``link_partition`` per link).
* :class:`BurnRateRule` — the SRE multi-window burn-rate pattern: the
  error-budget burn (bad/total over the window, divided by the budget)
  must exceed its threshold on **both** a fast and a slow window to
  fire.  The fast window catches the event quickly; the slow window
  suppresses one-sample blips.  With ``total=None`` the rule burns
  against an absolute events-per-second budget instead of a ratio.

Alerts are edge-triggered :class:`AlertEvent` records with simulated
timestamps: one event per bad transition, resolved in place when the
condition clears.  When a tracer is attached, every fire and resolve
also lands as a Chrome-trace instant so detections line up against
injected faults in the trace viewer.

:func:`join_detections` closes the loop: it matches alert events against
a fault injector's ground-truth timeline and reports per-fault MTTD
(injection to first matching alert) and MTTR (injection to repaired).
:func:`health_scores` folds one collected sample into per-node /
per-group / per-link scores and a fleet-wide minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError


@dataclass
class AlertEvent:
    """One edge-triggered alert: fired at ``at_s``, maybe resolved."""

    at_s: float
    name: str        #: rule name, e.g. ``node_down`` / ``slo_burn``
    target: str      #: what fired, e.g. ``north-dc1.g0.n0``
    severity: str
    value: float     #: observed gauge value or burn factor at fire time
    threshold: float
    window_s: float = 0.0
    resolved_at_s: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "at_s": self.at_s,
            "name": self.name,
            "target": self.target,
            "severity": self.severity,
            "value": self.value,
            "threshold": self.threshold,
            "window_s": self.window_s,
            "resolved_at_s": self.resolved_at_s,
        }


@dataclass(frozen=True)
class GaugeRule:
    """Fire while a gauge sits on the wrong side of a threshold."""

    name: str
    #: dotted-name prefix restricting the scan (e.g. ``mint.``)
    prefix: str
    #: metric suffix selecting the family (e.g. ``.up``)
    suffix: str
    #: fire while value < this (e.g. liveness gauges) ...
    fire_below: Optional[float] = None
    #: ... or while value > this (e.g. partitioned flags)
    fire_above: Optional[float] = None
    severity: str = "page"

    def __post_init__(self) -> None:
        if (self.fire_below is None) == (self.fire_above is None):
            raise ConfigError(
                f"gauge rule {self.name!r} needs exactly one of "
                "fire_below / fire_above"
            )

    def bad(self, value: float) -> bool:
        if self.fire_below is not None:
            return value < self.fire_below
        return value > self.fire_above

    @property
    def threshold(self) -> float:
        return (
            self.fire_below if self.fire_below is not None
            else self.fire_above
        )

    def target_of(self, metric: str) -> str:
        return metric[len(self.prefix):len(metric) - len(self.suffix)]


@dataclass(frozen=True)
class BurnRateRule:
    """SRE multi-window burn-rate alert over two counters.

    Burn = (bad delta / total delta) / budget per window when ``total``
    is set (budget is the allowed bad fraction); with ``total=None``,
    burn = (bad delta / window seconds) / budget (budget is the allowed
    absolute rate in events per second).  Fires when burn exceeds the
    threshold on the fast **and** the slow window; resolves when the
    fast window drops back under.
    """

    name: str
    bad: str
    total: Optional[str] = None
    budget: float = 0.01
    fast_window_s: float = 1.0
    slow_window_s: float = 5.0
    fast_burn: float = 14.0
    slow_burn: float = 6.0
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ConfigError(
                f"burn rule {self.name!r} needs a positive budget"
            )
        if self.fast_window_s <= 0 or self.slow_window_s < self.fast_window_s:
            raise ConfigError(
                f"burn rule {self.name!r} windows must satisfy "
                "0 < fast <= slow"
            )


def default_gauge_rules() -> Tuple[GaugeRule, ...]:
    """Liveness and reachability over the standard metric families."""
    return (
        GaugeRule(
            name="node_down", prefix="mint.", suffix=".up",
            fire_below=0.5, severity="page",
        ),
        GaugeRule(
            name="link_partition", prefix="bifrost.link.",
            suffix=".partitioned", fire_above=0.5, severity="page",
        ),
        GaugeRule(
            name="link_congested", prefix="bifrost.monitor.",
            suffix=".congested", fire_above=0.5, severity="warn",
        ),
        # Elastic rebalances surface as informational alerts so a
        # ``repro health --watch`` session shows data movement alongside
        # faults.  Fires per cluster and per group while any keys are
        # still awaiting migration; reads 0 (never fires) in fleets
        # that have no elastic activity.
        GaugeRule(
            name="rebalance_backlog", prefix="elastic.",
            suffix=".moving_keys", fire_above=0.5, severity="info",
        ),
    )


def default_burn_rules(
    fast_window_s: float = 1.0, slow_window_s: float = 5.0
) -> Tuple[BurnRateRule, ...]:
    """Availability and transport-health burn over the chaos probes."""
    return (
        # Read availability: 1% unavailable probes is the error budget;
        # an outage burns it at ~100x, tripping both windows fast.
        BurnRateRule(
            name="slo_burn",
            bad="faults.reads.unavailable",
            total="faults.reads.probes",
            budget=0.01,
            fast_window_s=fast_window_s,
            slow_window_s=slow_window_s,
            fast_burn=14.0,
            slow_burn=6.0,
            severity="page",
        ),
        # In-flight corruption: retransmissions above 0.1/s sustained on
        # both windows is a storm, not background noise.
        BurnRateRule(
            name="retransmit_storm",
            bad="faults.retransmits",
            total=None,
            budget=0.1,
            fast_window_s=fast_window_s,
            slow_window_s=slow_window_s,
            fast_burn=5.0,
            slow_burn=2.0,
            severity="warn",
        ),
    )


class HealthEngine:
    """Evaluates alert rules on every recorder sample."""

    def __init__(
        self,
        recorder,
        gauge_rules: Optional[Sequence[GaugeRule]] = None,
        burn_rules: Optional[Sequence[BurnRateRule]] = None,
        tracer=None,
        track: str = "alerts",
    ) -> None:
        self.recorder = recorder
        self.gauge_rules = tuple(
            default_gauge_rules() if gauge_rules is None else gauge_rules
        )
        self.burn_rules = tuple(
            default_burn_rules() if burn_rules is None else burn_rules
        )
        self.tracer = tracer
        self.track = track
        #: every alert ever fired, in fire order (resolved in place)
        self.alerts: List[AlertEvent] = []
        #: (rule name, target) -> currently firing alert
        self.active: Dict[Tuple[str, str], AlertEvent] = {}
        self.evaluations = 0
        recorder.subscribe(self.evaluate)

    # ------------------------------------------------------------------
    def _instant(self, name: str, at: float, **attrs) -> None:
        instant = getattr(self.tracer, "instant", None)
        if instant is not None:
            instant(name, track=self.track, at=at, **attrs)

    def _fire(
        self, at: float, name: str, target: str, severity: str,
        value: float, threshold: float, window_s: float = 0.0,
    ) -> None:
        key = (name, target)
        if key in self.active:
            return
        alert = AlertEvent(
            at_s=at, name=name, target=target, severity=severity,
            value=value, threshold=threshold, window_s=window_s,
        )
        self.active[key] = alert
        self.alerts.append(alert)
        self._instant(
            f"alert:{name}", at, target=target, severity=severity,
            value=value,
        )

    def _resolve(self, at: float, name: str, target: str) -> None:
        alert = self.active.pop((name, target), None)
        if alert is not None:
            alert.resolved_at_s = at
            self._instant(f"resolve:{name}", at, target=target)

    # ------------------------------------------------------------------
    def evaluate(self, at: float, values: Dict[str, float]) -> None:
        """One pass over every rule (the recorder's sample hook)."""
        self.evaluations += 1
        for rule in self.gauge_rules:
            for metric, value in values.items():
                if not (
                    metric.startswith(rule.prefix)
                    and metric.endswith(rule.suffix)
                ):
                    continue
                target = rule.target_of(metric)
                if rule.bad(value):
                    self._fire(
                        at, rule.name, target, rule.severity,
                        value, rule.threshold,
                    )
                else:
                    self._resolve(at, rule.name, target)
        recorder = self.recorder
        for rule in self.burn_rules:
            fast = self._burn(rule, rule.fast_window_s, at)
            slow = self._burn(rule, rule.slow_window_s, at)
            if fast > rule.fast_burn and slow > rule.slow_burn:
                self._fire(
                    at, rule.name, rule.bad, rule.severity,
                    fast, rule.fast_burn, window_s=rule.fast_window_s,
                )
            elif fast <= rule.fast_burn:
                self._resolve(at, rule.name, rule.bad)

    def _burn(self, rule: BurnRateRule, window_s: float, at: float) -> float:
        if rule.total is None:
            rate = self.recorder.window_rate(rule.bad, window_s, at=at)
            return rate / rule.budget
        bad = self.recorder.window_delta(rule.bad, window_s, at=at)
        total = self.recorder.window_delta(rule.total, window_s, at=at)
        if total <= 0:
            return 0.0
        return (bad / total) / rule.budget

    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, object]]:
        return [alert.to_dict() for alert in self.alerts]


# ----------------------------------------------------------------------
# Health scoring
# ----------------------------------------------------------------------


def health_scores(values: Dict[str, float]) -> Dict[str, object]:
    """Fold one collected sample into node/group/link health scores.

    Scores are in ``[0, 1]``: a node is its ``up`` gauge; a group is its
    live-replica fraction minus a 0.2 penalty each for parked writes and
    a non-empty repair backlog (durability debt that a healthy count
    alone hides); a link is ``1 - partitioned``.  ``fleet_score`` is the
    *minimum* across groups and links — health is availability-limited
    by the worst component, not averaged away.
    """
    nodes: Dict[str, float] = {}
    groups: Dict[str, Dict[str, float]] = {}
    links: Dict[str, float] = {}
    elastic_groups: Dict[str, Dict[str, float]] = {}
    for name, value in values.items():
        if name.startswith("mint.") and name.endswith(".up"):
            nodes[name[len("mint."):-len(".up")]] = 1.0 if value else 0.0
        elif name.startswith("bifrost.link.") and name.endswith(
            ".partitioned"
        ):
            links[name[len("bifrost.link."):-len(".partitioned")]] = (
                0.0 if value else 1.0
            )
        elif ".group." in name and name.startswith("mint."):
            prefix, _sep, suffix = name.rpartition(".group.")
            groups.setdefault(prefix[len("mint."):], {})[suffix] = value
        elif name.startswith("elastic.") and not name.startswith(
            "elastic.load."
        ):
            parts = name[len("elastic."):].split(".")
            if len(parts) == 3 and parts[1].startswith("g"):
                target = f"{parts[0]}.{parts[1]}"
                elastic_groups.setdefault(target, {})[parts[2]] = value
    group_scores: Dict[str, float] = {}
    for group, gauges in sorted(groups.items()):
        members = gauges.get("nodes", 0.0)
        healthy = gauges.get("healthy", members)
        score = healthy / members if members else 1.0
        if gauges.get("parked_writes", 0.0) > 0:
            score -= 0.2
        if gauges.get("repair_backlog", 0.0) > 0:
            score -= 0.2
        group_scores[group] = max(0.0, min(1.0, score))
    floor_candidates = list(group_scores.values()) + list(links.values())
    moving_keys = sum(
        gauges.get("moving_keys", 0.0)
        for gauges in elastic_groups.values()
    )
    rebalancing = moving_keys > 0 or any(
        gauges.get("in_transition", 0.0) > 0
        for gauges in elastic_groups.values()
    )
    return {
        "nodes": dict(sorted(nodes.items())),
        "groups": group_scores,
        "links": dict(sorted(links.items())),
        # Rebalance state rides along (informational — planned data
        # movement is not unhealthiness, so it never lowers the floor).
        "elastic": {
            "groups": dict(sorted(elastic_groups.items())),
            "moving_keys": moving_keys,
            "rebalancing": rebalancing,
        },
        "fleet_score": min(floor_candidates) if floor_candidates else 1.0,
    }


# ----------------------------------------------------------------------
# Detection-latency accounting (MTTD / MTTR)
# ----------------------------------------------------------------------

#: fault kinds a healthy alerting setup must always detect
REQUIRED_DETECTION_KINDS = ("crash", "outage", "partition")

#: fault kind -> alert names that count as detecting it
_KIND_ALERTS = {
    "crash": ("node_down",),
    "outage": ("node_down",),
    "partition": ("link_partition", "slo_burn"),
    "degrade": ("link_congested", "slo_burn"),
    "corrupt": ("retransmit_storm",),
}


def _alert_matches(record: Dict[str, object], alert: AlertEvent) -> bool:
    kind = record["kind"]
    if alert.name not in _KIND_ALERTS.get(kind, ()):
        return False
    target = str(record["target"]).replace("/", ".")
    if kind == "crash":
        return alert.target == target
    if kind == "outage":
        return alert.target.startswith(target + ".")
    if kind in ("partition", "degrade"):
        # link targets may carry a stream segment (src-dst.slices)
        return alert.name == "slo_burn" or alert.target.startswith(target)
    return True  # corrupt: the storm alert is fleet-wide


def join_detections(
    timeline: Sequence[Dict[str, object]],
    alerts: Sequence[AlertEvent],
    grace_s: float = 0.0,
) -> Dict[str, object]:
    """Match alert events against injected-fault ground truth.

    For every fault the injector actually applied, find the earliest
    matching alert fired at or after injection (and no later than
    ``healed_at + grace_s`` when the heal time is known — an alert for a
    later fault on the same target must not claim this one).  MTTD is
    that alert's fire time minus injection; MTTR is repair completion
    (re-protection for node faults, heal for network faults) minus
    injection.
    """
    ordered = sorted(alerts, key=lambda a: a.at_s)
    rows: List[Dict[str, object]] = []
    detected_latencies: List[float] = []
    repair_latencies: List[float] = []
    undetected_required = 0
    for record in timeline:
        injected = record.get("injected_at")
        if injected is None:
            continue  # scheduled but never applied (run ended first)
        healed = record.get("healed_at")
        deadline = (
            float("inf") if healed is None else healed + grace_s
        )
        match: Optional[AlertEvent] = None
        for alert in ordered:
            if alert.at_s < injected or alert.at_s > deadline:
                continue
            if _alert_matches(record, alert):
                match = alert
                break
        repaired = record.get("repaired_at")
        if repaired is None:
            repaired = healed
        mttd = None if match is None else match.at_s - injected
        mttr = None if repaired is None else repaired - injected
        if mttd is not None:
            detected_latencies.append(mttd)
        if mttr is not None:
            repair_latencies.append(mttr)
        required = record["kind"] in REQUIRED_DETECTION_KINDS
        if required and mttd is None:
            undetected_required += 1
        rows.append(
            {
                "index": record.get("index"),
                "kind": record["kind"],
                "target": record["target"],
                "injected_at_s": injected,
                "healed_at_s": healed,
                "repaired_at_s": record.get("repaired_at"),
                "detected_by": None if match is None else match.name,
                "detected_at_s": None if match is None else match.at_s,
                "mttd_s": mttd,
                "mttr_s": mttr,
                "detection_required": required,
            }
        )

    def stats(latencies: List[float]) -> Dict[str, float]:
        if not latencies:
            return {"count": 0, "mean_s": 0.0, "max_s": 0.0}
        return {
            "count": len(latencies),
            "mean_s": sum(latencies) / len(latencies),
            "max_s": max(latencies),
        }

    return {
        "faults": rows,
        "injected": len(rows),
        "detected": len(detected_latencies),
        "undetected_required": undetected_required,
        "mttd": stats(detected_latencies),
        "mttr": stats(repair_latencies),
    }


__all__ = [
    "AlertEvent",
    "BurnRateRule",
    "GaugeRule",
    "HealthEngine",
    "REQUIRED_DETECTION_KINDS",
    "default_burn_rules",
    "default_gauge_rules",
    "health_scores",
    "join_detections",
]
