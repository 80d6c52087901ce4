"""ReplicaRepairer: backlog replay, parked writes, the audit sweep, and
cross-region re-fetch of correlated tail loss."""

import pytest

from repro.errors import KeyNotFoundError, NodeDownError
from repro.faults.repair import RepairResult, ReplicaRepairer
from repro.mint.cluster import MintCluster, MintConfig


def small_cluster(name="dc1"):
    return MintCluster(
        name,
        MintConfig(
            group_count=1, nodes_per_group=3,
            node_capacity_bytes=16 * 1024 * 1024,
        ),
    )


@pytest.fixture
def cluster():
    return small_cluster()


def note_version(cluster, version, *keys):
    cluster.version_keys.setdefault(version, []).extend(keys)


# ---------------------------------------------------------------- backlog
def test_backlog_put_replays_from_peers(cluster):
    group = cluster.groups[0]
    node = group.nodes[0]
    node.fail()
    cluster.put(b"k1", 1, b"v1")  # routed around the down node
    note_version(cluster, 1, b"k1")
    assert group.repair_backlog[node.name] == [("put", b"k1", 1)]

    node.recover()
    result = ReplicaRepairer().repair_node(cluster, group, node)
    assert result.keys_copied == 1
    assert node.engine.get(b"k1", 1) == b"v1"
    assert node.name not in group.repair_backlog
    assert result.device_seconds > 0


def test_backlog_delete_replays(cluster):
    group = cluster.groups[0]
    node = group.nodes[0]
    cluster.put(b"k1", 1, b"v1")
    for replica in group.nodes:
        replica.engine.flush()
    node.fail()
    group.delete_batch([(b"k1", 1)])

    node.recover()
    result = ReplicaRepairer().repair_node(cluster, group, node)
    assert result.deletes_applied == 1
    with pytest.raises(KeyNotFoundError):
        node.engine.get(b"k1", 1)


def test_missed_eviction_replays_as_one_backlog_entry(cluster):
    group = cluster.groups[0]
    node = group.nodes[0]
    keys = [f"k{index:02d}".encode() for index in range(20)]
    for version in (1, 2):
        cluster.put_batch([(key, version, b"v" + key) for key in keys])
        note_version(cluster, version, *keys)
    for replica in group.nodes:
        replica.engine.flush()
    node.fail()
    cluster.drop_version(1)
    assert group.repair_backlog[node.name] == [("retire", None, 1)]

    node.recover()  # the flushed copies of v1 survive the crash
    assert all(node.engine.exists(key, 1) for key in keys)
    result = ReplicaRepairer().repair_node(cluster, group, node)
    assert result.deletes_applied == len(keys)
    assert not any(node.engine.exists(key, 1) for key in keys)
    assert all(node.engine.exists(key, 2) for key in keys)


def test_repair_requires_a_live_node(cluster):
    group = cluster.groups[0]
    node = group.nodes[0]
    node.fail()
    with pytest.raises(NodeDownError):
        ReplicaRepairer().repair_node(cluster, group, node)


# -------------------------------------------------------------- audit sweep
def test_audit_restores_a_lost_unflushed_tail(cluster):
    group = cluster.groups[0]
    node = group.nodes[0]
    cluster.put(b"tail", 1, b"t" * 10)  # sits in every page-fill buffer
    note_version(cluster, 1, b"tail")
    for peer in group.nodes:
        if peer is not node:
            peer.engine.flush()  # peers made it durable; node did not

    node.fail()
    node.recover()  # crash-recovery cannot resurrect the tail
    assert not node.engine.exists(b"tail", 1)

    result = ReplicaRepairer().repair_node(cluster, group, node)
    assert result.keys_copied == 1
    assert node.engine.get(b"tail", 1) == b"t" * 10


def test_repair_preserves_dedup_representation(cluster):
    group = cluster.groups[0]
    node = group.nodes[0]
    cluster.put(b"url", 1, b"base")
    cluster.put(b"url", 2, None)  # value-less dedup record
    note_version(cluster, 1, b"url")
    note_version(cluster, 2, b"url")
    for peer in group.nodes:
        if peer is not node:
            peer.engine.flush()

    node.fail()
    node.recover()
    ReplicaRepairer().repair_node(cluster, group, node)
    # The copy is value-less, not a materialised read: byte-identical to
    # a replica that never crashed.
    assert node.engine.peek(b"url", 2) == (None, True)
    assert node.engine.get(b"url", 2) == b"base"


def test_repair_never_resurrects_dropped_versions(cluster):
    group = cluster.groups[0]
    node = group.nodes[0]
    node.fail()
    cluster.put(b"gone", 7, b"x")
    # the version retired while node was down
    cluster.drop_version(7)

    node.recover()
    result = ReplicaRepairer().repair_node(cluster, group, node)
    assert result.keys_copied == 0
    assert not node.engine.exists(b"gone", 7)


# ------------------------------------------------------------ parked writes
def test_parked_writes_land_on_rejoin(cluster):
    group = cluster.groups[0]
    group.park_when_unavailable = True
    for replica in group.nodes:
        replica.fail()
    cluster.put(b"parked", 3, b"p")
    assert group.pending_writes == [(b"parked", 3, b"p")]

    node = group.nodes[0]
    node.recover()
    result = ReplicaRepairer().repair_node(cluster, group, node)
    assert result.keys_copied == 1
    assert node.engine.get(b"parked", 3) == b"p"
    assert group.pending_writes == []

    # The still-down peers pick the record up through their own repair.
    for peer in group.nodes[1:]:
        peer.recover()
        ReplicaRepairer().repair_node(cluster, group, peer)
        assert peer.engine.get(b"parked", 3) == b"p"


def test_parked_write_stays_parked_while_all_replicas_down(cluster):
    group = cluster.groups[0]
    group.park_when_unavailable = True
    for replica in group.nodes:
        replica.fail()
    cluster.put(b"parked", 3, b"p")
    # Replaying against a group with no live replica leaves it parked.
    ReplicaRepairer()._replay_parked(group, RepairResult())
    assert group.pending_writes == [(b"parked", 3, b"p")]


def test_dropped_version_unparks(cluster):
    group = cluster.groups[0]
    group.park_when_unavailable = True
    for replica in group.nodes:
        replica.fail()
    cluster.put(b"parked", 3, b"p")
    cluster.drop_version(3)
    assert group.pending_writes == []


# ------------------------------------------------------------ cross-region
def test_correlated_tail_loss_refetches_cross_region():
    local = small_cluster("north-dc1")
    remote = small_cluster("east-dc1")
    fleet = {"north-dc1": local, "east-dc1": remote}
    remote.put(b"k1", 1, b"v1")  # the slice also landed in the other DC
    note_version(local, 1, b"k1")
    note_version(remote, 1, b"k1")

    # Correlated loss: the record is acknowledged locally but survives on
    # no local replica (the whole group crashed with unflushed tails).
    group = local.groups[0]
    node = group.nodes[0]
    # Without the fleet there is nowhere to copy from.
    assert (
        ReplicaRepairer().repair_node(local, group, node).keys_copied == 0
    )
    result = ReplicaRepairer().repair_node(local, group, node, fleet=fleet)
    assert result.keys_copied == 1
    assert result.remote_copies == 1
    assert node.engine.get(b"k1", 1) == b"v1"
