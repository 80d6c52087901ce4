"""Property tests for the elastic subsystem's two structural promises.

* **Minimal movement** — rendezvous hashing means a single node join or
  leave disturbs only the joining/leaving node's fair share of keys
  (``replica_count / member_count``), and every disturbed key swaps
  exactly one replica.
* **Drain safety** — ``read_order`` never prefers a draining member
  while a live non-draining candidate exists, so reads stay off nodes
  that are being emptied.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.elastic.planner import RebalancePlanner
from repro.mint.cluster import MintCluster, MintConfig

KEYS = 150
NODES = 4


def fresh_cluster(nodes=NODES):
    return MintCluster(
        "dc-prop",
        MintConfig(
            group_count=1, nodes_per_group=nodes, replica_count=3,
            node_capacity_bytes=64 * 1024 * 1024,
        ),
    )


def load_keys(cluster, prefix):
    keys = [f"{prefix}-{i:04d}".encode() for i in range(KEYS)]
    for key in keys:
        cluster.put(key, 1, b"v")
    cluster.version_keys.setdefault(1, []).extend(keys)
    return keys


def join_deviation(prefix):
    """Plan one node join; returns moved fraction minus the fair share."""
    cluster = fresh_cluster()
    group = cluster.groups[0]
    load_keys(cluster, prefix)

    group.begin_transition()
    node = cluster.spawn_node(group)
    tasks = RebalancePlanner(cluster).plan_group_transition(group)

    # structurally minimal: each disturbed key copies onto the new node
    # only, displacing exactly one old replica
    for task in tasks:
        assert [n.name for n in task.copy_targets] == [node.name]
        assert len(task.withdraw_targets) == 1
    # the new node's fair share: replica_count / new member count
    share = group.replica_count / len(group.nodes)
    return len(tasks) / KEYS - share


def leave_deviation(prefix):
    """Plan one node drain; returns moved fraction minus the leaver's share."""
    cluster = fresh_cluster()
    group = cluster.groups[0]
    load_keys(cluster, prefix)

    group.begin_transition()
    leaver = group.nodes[-1].name
    group.mark_draining(leaver)
    tasks = RebalancePlanner(cluster).plan_group_transition(group)

    for task in tasks:
        assert [n.name for n in task.withdraw_targets] == [leaver]
        assert len(task.copy_targets) == 1
    share = group.replica_count / NODES  # what the leaver owned
    return len(tasks) / KEYS - share


# The moved fraction of 150 keys has a measured sd of 0.04 around the
# fair share, so a random draw only gets a cut far in the tail (0.25;
# prefix 889 sits at +0.18 and tripped the old 0.18 cut), and the
# statistical claim — the mean is the fair share — is checked over a
# fixed prefix range instead.
SHARE_PREFIXES = range(200)


@given(prefix=st.integers(min_value=0, max_value=2**32))
@example(prefix=889)
@settings(max_examples=25, deadline=None)
def test_single_join_moves_about_one_share(prefix):
    assert abs(join_deviation(prefix)) < 0.25


@given(prefix=st.integers(min_value=0, max_value=2**32))
@example(prefix=889)
@settings(max_examples=25, deadline=None)
def test_single_leave_moves_about_the_leavers_share(prefix):
    assert abs(leave_deviation(prefix)) < 0.25


@pytest.mark.parametrize("deviation", [join_deviation, leave_deviation])
def test_mean_movement_is_the_fair_share(deviation):
    deviations = [deviation(prefix) for prefix in SHARE_PREFIXES]
    assert abs(sum(deviations) / len(deviations)) < 0.01


keys = st.binary(min_size=1, max_size=24)
crash_masks = st.lists(
    st.booleans(), min_size=NODES - 1, max_size=NODES - 1
)


@given(key=keys, drain_index=st.integers(0, NODES - 1), mask=crash_masks)
@settings(max_examples=80, deadline=None)
def test_read_order_never_prefers_a_draining_node(key, drain_index, mask):
    cluster = fresh_cluster()
    group = cluster.groups[0]
    draining = group.nodes[drain_index].name
    group.mark_draining(draining)
    others = [node for node in group.nodes if node.name != draining]
    for node, down in zip(others, mask):
        if down:
            node.fail()

    order = group.read_order(key)
    first = order[0]
    if first.name == draining:
        # only acceptable as failover of last resort: every live
        # non-draining candidate is down
        assert all(not node.is_up for node in order if node.name != draining)
    # and a down node still never precedes a live one
    states = [node.is_up for node in order]
    assert states == sorted(states, reverse=True)
