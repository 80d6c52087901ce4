"""Fault-plan grammar, ordering, registry, and the seeded generator."""

import pytest

from repro.errors import ConfigError
from repro.faults.plan import (
    NAMED_PLANS,
    CorruptionBurst,
    FaultPlan,
    GroupOutage,
    LinkDegrade,
    LinkPartition,
    NodeCrash,
    random_crash_plan,
)


# ------------------------------------------------------------------ grammar
def test_parse_every_verb():
    plan = FaultPlan.parse(
        "crash node=north-dc1/g0/n0 at=1 down=4; "
        "outage group=north-dc1/g0 at=2 down=3; "
        "partition link=origin-north at=0.5 dur=6; "
        "degrade link=east-north factor=0.25 at=3 dur=2; "
        "corrupt p=0.4 at=0 dur=20"
    )
    kinds = [type(event) for event in plan.events]
    assert kinds == [
        CorruptionBurst, LinkPartition, NodeCrash, GroupOutage, LinkDegrade,
    ]


def test_parse_newlines_comments_and_blanks():
    plan = FaultPlan.parse(
        """
        # the first replica dies
        crash node=a/g0/n0 at=1 down=4

        crash node=a/g0/n1 at=2 down=4
        """
    )
    assert len(plan.events) == 2
    assert plan.events[0].node == "a/g0/n0"


def test_parse_oneway_flag():
    plan = FaultPlan.parse(
        "partition link=origin-north at=0 dur=1 oneway; "
        "partition link=origin-east at=0 dur=1"
    )
    by_dest = {event.destination: event for event in plan.events}
    assert by_dest["north"].both_directions is False
    assert by_dest["east"].both_directions is True


def test_events_sort_by_offset_stably():
    plan = FaultPlan(
        events=(
            NodeCrash(at_s=5.0, node="a/g0/n0", down_s=1.0),
            NodeCrash(at_s=1.0, node="a/g0/n1", down_s=1.0),
            NodeCrash(at_s=1.0, node="a/g0/n2", down_s=1.0),
        )
    )
    assert [event.node for event in plan.events] == [
        "a/g0/n1", "a/g0/n2", "a/g0/n0",
    ]


@pytest.mark.parametrize(
    "text",
    [
        "explode node=a/g0/n0 at=1 down=4",     # unknown verb
        "crash node=a/g0/n0 down=4",            # missing at=
        "crash node=a/g0/n0 at=x down=4",       # non-numeric
        "crash node=a/g0/n0 at=-1 down=4",      # negative offset
        "partition link=northless at=0 dur=1",  # malformed link pair
        "partition link=origin-north at=0 dur=1 sideways",  # unknown flag
    ],
)
def test_parse_rejects_bad_clauses(text):
    with pytest.raises(ConfigError):
        FaultPlan.parse(text)


# ----------------------------------------------------------------- registry
def test_named_registry_all_parse():
    for name in NAMED_PLANS:
        plan = FaultPlan.named(name)
        assert plan.name == name


def test_named_none_is_empty():
    assert FaultPlan.named("none").events == ()


def test_named_unknown_lists_known():
    with pytest.raises(ConfigError, match="single-node-crash"):
        FaultPlan.named("nope")


# ---------------------------------------------------------------- generator
def test_random_crash_plan_is_deterministic():
    names = ["a/g0/n0", "a/g0/n1", "a/g0/n2"]
    first = random_crash_plan(names, rate_per_s=0.5, horizon_s=10.0, seed=7)
    again = random_crash_plan(names, rate_per_s=0.5, horizon_s=10.0, seed=7)
    other = random_crash_plan(names, rate_per_s=0.5, horizon_s=10.0, seed=8)
    assert first.events == again.events
    assert first.events != other.events


def test_random_crash_plan_count_and_bounds():
    names = ["a/g0/n0", "a/g0/n1"]
    plan = random_crash_plan(names, rate_per_s=0.5, horizon_s=10.0, seed=1)
    assert len(plan.events) == 5
    for event in plan.events:
        assert isinstance(event, NodeCrash)
        assert 0.0 <= event.at_s <= 10.0
        assert event.node in names
    # A tiny positive rate still schedules at least one crash.
    tiny = random_crash_plan(names, rate_per_s=0.001, horizon_s=10.0)
    assert len(tiny.events) == 1
    # Rate zero means no faults at all.
    assert random_crash_plan(names, rate_per_s=0.0, horizon_s=10.0).events == ()


def test_random_crash_plan_validates_inputs():
    with pytest.raises(ConfigError):
        random_crash_plan(["n"], rate_per_s=-1.0, horizon_s=10.0)
    with pytest.raises(ConfigError):
        random_crash_plan(["n"], rate_per_s=1.0, horizon_s=0.0)
    with pytest.raises(ConfigError):
        random_crash_plan([], rate_per_s=1.0, horizon_s=10.0)
