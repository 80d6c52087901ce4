"""Fault plans: what breaks, when, and for how long.

A :class:`FaultPlan` is an ordered set of frozen fault events with
offsets relative to the plan's start.  Plans come from three places:

* the text grammar (:meth:`FaultPlan.parse`) — semicolon- or
  newline-separated clauses like::

      crash node=north-dc1/g0/n0 at=1 down=4
      outage group=north-dc1/g0 at=1 down=4
      partition link=origin-north at=0.5 dur=6 [oneway]
      degrade link=origin-north factor=0.25 at=0.5 dur=6 [oneway]
      corrupt p=0.4 at=0 dur=20

* the named registry (:data:`NAMED_PLANS`), keyed by scenario name and
  written against the standard small chaos topology;
* :func:`random_crash_plan`, a seeded generator for fault-rate sweeps.

Everything is deterministic: the same plan text and seed schedule the
same events at the same simulated instants, every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import ConfigError


@dataclass(frozen=True)
class NodeCrash:
    """Power-fail one storage node, restart it after ``down_s``."""

    at_s: float
    node: str  # "dc/gN/nN" path, e.g. "north-dc1/g0/n0"
    down_s: float


@dataclass(frozen=True)
class GroupOutage:
    """Fail every node of one group at once (rack/switch loss)."""

    at_s: float
    group: str  # "dc/gN" path, e.g. "north-dc1/g0"
    down_s: float


@dataclass(frozen=True)
class LinkPartition:
    """Blackhole a backbone hop for ``duration_s`` seconds."""

    at_s: float
    source: str
    destination: str
    duration_s: float
    both_directions: bool = True


@dataclass(frozen=True)
class LinkDegrade:
    """Throttle a backbone hop to ``factor`` of nominal bandwidth."""

    at_s: float
    source: str
    destination: str
    factor: float
    duration_s: float
    both_directions: bool = True


@dataclass(frozen=True)
class CorruptionBurst:
    """Raise the per-hop corruption probability by ``probability``."""

    at_s: float
    probability: float
    duration_s: float


FaultEvent = Union[
    NodeCrash, GroupOutage, LinkPartition, LinkDegrade, CorruptionBurst
]


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        for event in self.events:
            if event.at_s < 0:
                raise ConfigError(f"fault offset must be >= 0: {event}")
        # Stable (at_s, original order) ordering keeps injection
        # deterministic even for simultaneous events.
        ordered = tuple(
            event
            for _key, event in sorted(
                enumerate(self.events), key=lambda pair: (pair[1].at_s, pair[0])
            )
        )
        object.__setattr__(self, "events", ordered)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, name: str = "") -> "FaultPlan":
        """Build a plan from the clause grammar (see module docstring)."""
        events: List[FaultEvent] = []
        for raw_clause in text.replace("\n", ";").split(";"):
            clause = raw_clause.strip()
            if not clause or clause.startswith("#"):
                continue
            events.append(_parse_clause(clause))
        return cls(events=tuple(events), name=name)

    @classmethod
    def named(cls, name: str) -> "FaultPlan":
        """A plan from the scenario registry."""
        try:
            text = NAMED_PLANS[name]
        except KeyError:
            known = ", ".join(sorted(NAMED_PLANS))
            raise ConfigError(
                f"unknown fault plan {name!r}; known plans: {known}"
            ) from None
        return cls.parse(text, name=name)


def _parse_clause(clause: str) -> FaultEvent:
    parts = clause.split()
    verb = parts[0]
    flags = {part for part in parts[1:] if "=" not in part}
    fields: Dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            continue
        key, _eq, value = part.partition("=")
        fields[key] = value
    unknown_flags = flags - {"oneway"}
    if unknown_flags:
        raise ConfigError(f"unknown flag(s) {unknown_flags} in {clause!r}")
    both = "oneway" not in flags

    def need(key: str) -> str:
        try:
            return fields[key]
        except KeyError:
            raise ConfigError(f"clause {clause!r} is missing {key}=") from None

    def seconds(key: str) -> float:
        try:
            value = float(need(key))
        except ValueError:
            raise ConfigError(
                f"{key}= in {clause!r} is not a number"
            ) from None
        if value < 0:
            raise ConfigError(f"{key}= in {clause!r} must be >= 0")
        return value

    if verb == "crash":
        return NodeCrash(at_s=seconds("at"), node=need("node"),
                         down_s=seconds("down"))
    if verb == "outage":
        return GroupOutage(at_s=seconds("at"), group=need("group"),
                           down_s=seconds("down"))
    if verb in ("partition", "degrade"):
        # Endpoints are "origin" or region names, which contain no
        # hyphens, so the first hyphen splits the pair.
        link = need("link")
        source, sep, destination = link.partition("-")
        if not sep or not source or not destination:
            raise ConfigError(
                f"link= in {clause!r} must look like origin-north"
            )
        if verb == "partition":
            return LinkPartition(
                at_s=seconds("at"), source=source, destination=destination,
                duration_s=seconds("dur"), both_directions=both,
            )
        return LinkDegrade(
            at_s=seconds("at"), source=source, destination=destination,
            factor=float(need("factor")), duration_s=seconds("dur"),
            both_directions=both,
        )
    if verb == "corrupt":
        return CorruptionBurst(
            at_s=seconds("at"), probability=float(need("p")),
            duration_s=seconds("dur"),
        )
    raise ConfigError(f"unknown fault verb {verb!r} in {clause!r}")


#: Scenario registry, written against the standard small chaos system
#: (regions north/east/south, one group of three nodes per data center).
NAMED_PLANS: Dict[str, str] = {
    # The no-op plan: a chaos run under it must be byte-identical to a
    # plain update cycle (the equivalence test).
    "none": "",
    # One replica of the north gray DC power-fails mid-delivery and
    # rejoins; repair must restore 3/3 copies with zero key loss.
    "single-node-crash": "crash node=north-dc1/g0/n0 at=1 down=4",
    # A whole group drops (rack loss) and comes back.
    "group-outage": "outage group=north-dc1/g0 at=1 down=4",
    # North's preferred relay link blackholes; its slices must fail over
    # through a surviving relay group (east or south detour).
    "relay-partition": "partition link=origin-north at=0.5 dur=6",
    # Every route into north is gone; deliveries back off until the
    # partition heals, then complete.
    "region-isolation": (
        "partition link=origin-north at=0.5 dur=6; "
        "partition link=east-north at=0.5 dur=6; "
        "partition link=south-north at=0.5 dur=6"
    ),
    # A burst of in-flight damage: per-hop corruption jumps, relays
    # catch it via CRC and retransmit from the origin.
    "corruption-burst": "corrupt p=0.4 at=0 dur=20",
}


def random_crash_plan(
    node_names: Sequence[str],
    rate_per_s: float,
    horizon_s: float,
    seed: int = 0,
    down_s: float = 3.0,
) -> FaultPlan:
    """A seeded plan of node crashes at ``rate_per_s`` over a horizon.

    The crash count is the expectation ``rate * horizon`` rounded to the
    nearest whole event (at least one when the rate is positive), with
    crash times and victims drawn uniformly from a private RNG — the
    fault-rate axis of the chaos ablation (A11).
    """
    if rate_per_s < 0:
        raise ConfigError("crash rate must be >= 0")
    if horizon_s <= 0:
        raise ConfigError("horizon must be positive")
    if not node_names:
        raise ConfigError("need at least one node name")
    rng = random.Random(seed)
    count = int(round(rate_per_s * horizon_s))
    if rate_per_s > 0:
        count = max(1, count)
    events = tuple(
        NodeCrash(
            at_s=rng.uniform(0.0, horizon_s),
            node=rng.choice(list(node_names)),
            down_s=down_s,
        )
        for _ in range(count)
    )
    return FaultPlan(events=events, name=f"random-crash-{rate_per_s:g}")
