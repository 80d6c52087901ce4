"""RebalancePlanner: minimal per-key diffs for transitions and slot moves."""

import pytest

from repro.elastic.planner import RebalancePlanner
from repro.errors import ClusterError
from repro.mint.cluster import MintCluster, MintConfig


def small_cluster(groups=1, nodes=3):
    return MintCluster(
        "dc1",
        MintConfig(
            group_count=groups, nodes_per_group=nodes,
            node_capacity_bytes=32 * 1024 * 1024,
        ),
    )


def load_keys(cluster, count, version=1):
    keys = [f"key-{i:04d}".encode() for i in range(count)]
    for key in keys:
        cluster.put(key, version, b"v" * 16)
    cluster.version_keys.setdefault(version, []).extend(keys)
    return keys


def test_plan_requires_a_transition():
    cluster = small_cluster()
    with pytest.raises(ClusterError):
        RebalancePlanner(cluster).plan_group_transition(cluster.groups[0])


def test_join_plan_touches_only_rebalanced_keys():
    cluster = small_cluster()
    group = cluster.groups[0]
    keys = load_keys(cluster, 200)

    group.begin_transition()
    node = cluster.spawn_node(group)
    tasks = RebalancePlanner(cluster).plan_group_transition(group)

    # every task copies onto the new node and withdraws from exactly one
    # displaced old replica
    assert tasks, "a join must displace some keys"
    for task in tasks:
        assert [n.name for n in task.copy_targets] == [node.name]
        assert len(task.withdraw_targets) == 1
        assert task.source_group is group and task.target_group is group
    # untouched keys produce no tasks
    assert len(tasks) < len(keys)
    # and the plan is sorted + duplicate-free
    planned = [task.key for task in tasks]
    assert planned == sorted(set(planned))


def test_leave_plan_copies_off_the_draining_node():
    cluster = small_cluster(nodes=4)
    group = cluster.groups[0]
    load_keys(cluster, 200)

    group.begin_transition()
    leaver = group.nodes[-1].name
    group.mark_draining(leaver)
    tasks = RebalancePlanner(cluster).plan_group_transition(group)

    assert tasks
    for task in tasks:
        assert [n.name for n in task.withdraw_targets] == [leaver]
        assert leaver not in {n.name for n in task.copy_targets}


def test_slot_move_plan_covers_exactly_the_moving_slots():
    cluster = small_cluster(groups=2)
    source, target = cluster.groups
    keys = load_keys(cluster, 200)
    moving = cluster.slots_of(source)[::2]
    for slot in moving:
        cluster.begin_slot_move(slot, target)

    tasks = RebalancePlanner(cluster).plan_slot_moves(
        {slot: (source, target) for slot in moving}
    )

    moving_set = set(moving)
    expected = {key for key in keys if cluster.slot_for(key) in moving_set}
    assert {task.key for task in tasks} == expected
    for task in tasks:
        # whole replica set moves across the group boundary
        assert {n.name for n in task.copy_targets} == {
            n.name for n in target.replicas_for(task.key)
        }


def test_versions_ascend_so_chain_bases_land_first():
    cluster = small_cluster()
    group = cluster.groups[0]
    for version in (3, 1, 2):
        cluster.put(b"multi", version, b"v" * 8)
        cluster.version_keys.setdefault(version, []).append(b"multi")

    group.begin_transition()
    cluster.spawn_node(group)
    tasks = RebalancePlanner(cluster).plan_group_transition(group)
    for task in tasks:
        assert list(task.versions) == sorted(task.versions)
