"""Scatter-gather ``multi_get`` across groups and replicas.

Equivalence with per-key ``get`` (byte-identical values, same error
semantics), balanced replica spread, failover when a replica is down or
missing a key, and the read-side counters the frontend's shedding and
the repair tooling depend on.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    ClusterError,
    CorruptionError,
    KeyNotFoundError,
    ReplicationError,
)
from repro.mint.cluster import MintCluster, MintConfig


def make_cluster(groups: int = 2) -> MintCluster:
    return MintCluster(
        "dc-test",
        MintConfig(
            group_count=groups, nodes_per_group=3, replica_count=3,
            node_capacity_bytes=64 * 1024 * 1024,
        ),
    )


def seeded_cluster(groups: int = 2, keys: int = 60):
    cluster = make_cluster(groups)
    expect = {}
    for index in range(keys):
        key = f"doc-{index:04d}".encode()
        value = f"value-{index:04d}".encode() * 8
        cluster.put(key, 1, value)
        expect[key] = value
    return cluster, expect


def test_multi_get_matches_per_key_gets():
    cluster, expect = seeded_cluster()
    items = [(key, 1) for key in expect]
    assert cluster.multi_get(items) == [expect[key] for key, _ in items]


def test_multi_get_preserves_input_order_with_duplicates():
    cluster, expect = seeded_cluster(keys=10)
    keys = sorted(expect)
    items = [(keys[3], 1), (keys[7], 1), (keys[3], 1), (keys[0], 1)]
    assert cluster.multi_get(items) == [
        expect[keys[3]], expect[keys[7]], expect[keys[3]], expect[keys[0]]
    ]


def test_multi_get_missing_modes():
    cluster, expect = seeded_cluster(keys=5)
    key = sorted(expect)[0]
    with pytest.raises(KeyNotFoundError):
        cluster.multi_get([(key, 1), (b"absent", 1)])
    values = cluster.multi_get([(key, 1), (b"absent", 1)], missing="none")
    assert values == [expect[key], None]
    with pytest.raises(ClusterError):
        cluster.multi_get([(key, 1)], missing="bogus")


def test_multi_get_spreads_load_across_replicas():
    cluster, expect = seeded_cluster(groups=1)
    items = [(key, 1) for key in expect] * 3
    cluster.multi_get(items)
    counts = [node.gets for node in cluster.all_nodes]
    # Every replica serves; batch-aware read_order keeps the spread
    # within a small factor rather than hammering the rank-0 replica.
    assert min(counts) > 0
    assert max(counts) <= 3 * min(counts)


def test_multi_get_fails_over_around_a_down_node():
    cluster, expect = seeded_cluster(groups=1)
    group = cluster.groups[0]
    group.nodes[0].fail()
    items = [(key, 1) for key in sorted(expect)]
    assert cluster.multi_get(items) == [expect[key] for key, _ in items]
    assert group.nodes[0].gets == 0


def test_multi_get_fails_over_a_missing_replica_copy():
    """A live node that lost a key (unflushed tail) fails over per-key."""
    cluster, expect = seeded_cluster(groups=1)
    key = sorted(expect)[0]
    group = cluster.group_for(key)
    # Simulate a lost copy: delete the key from the preferred replica's
    # engine only.
    victim = group.read_order(key)[0]
    victim.engine.delete(key, 1)
    got = cluster.multi_get([(key, 1)] * 4)
    assert got == [expect[key]] * 4
    assert victim.missing_gets >= 1
    assert group.failover_gets >= 1


def test_corrupt_replica_copy_fails_over_per_key(corrupt_frame):
    """A frame that fails its CRC on one replica is a failed replica for
    that read, like a missing key: ``get`` and ``multi_get`` answer from
    the next one and count it (both raised on the parent)."""
    cluster, expect = seeded_cluster(groups=1)
    group = cluster.groups[0]
    key, other = sorted(expect)[:2]
    victim = group.read_order(key)[0]
    corrupt_frame(victim, key)

    def put_victim_first():
        # reads served by the other replicas put the damaged copy back
        # at the head of the order
        for node in group.nodes:
            while node is not victim and node.gets <= victim.gets:
                node.get(key, 1)
        assert group.read_order(key, {})[0] is victim

    put_victim_first()
    assert group.get(key, 1) == expect[key]
    assert (victim.corrupt_gets, group.failover_gets) == (1, 1)
    put_victim_first()
    assert group.multi_get([(key, 1), (other, 1)]) == [
        expect[key], expect[other]
    ]
    assert (victim.corrupt_gets, group.failover_gets) == (2, 2)
    assert cluster.stats()["corrupt_gets_per_node"][victim.name] == 2


def test_every_live_copy_corrupt_raises_corruption_error(corrupt_frame):
    cluster, expect = seeded_cluster(groups=1)
    group = cluster.groups[0]
    key, other = sorted(expect)[:2]
    for node in group.nodes[1:]:
        corrupt_frame(node, key)
    group.nodes[0].fail()
    with pytest.raises(CorruptionError):
        group.get(key, 1)
    for mode in ("raise", "none"):
        with pytest.raises(CorruptionError):
            group.multi_get([(other, 1), (key, 1)], missing=mode)
    assert [node.corrupt_gets > 0 for node in group.nodes] == [
        False, True, True
    ]
    # a live copy that is merely missing does not hide the corrupt one
    group.nodes[0].recover()
    group.nodes[0].engine.delete(key, 1)
    with pytest.raises(CorruptionError):
        group.get(key, 1)
    with pytest.raises(CorruptionError):
        group.multi_get([(key, 1)], missing="none")


def test_multi_get_all_replicas_down_raises_replication_error():
    cluster, expect = seeded_cluster(groups=1)
    for node in cluster.all_nodes:
        node.fail()
    with pytest.raises(ReplicationError):
        cluster.multi_get([(sorted(expect)[0], 1)])


def test_multi_get_counters_and_stats():
    cluster, expect = seeded_cluster()
    items = [(key, 1) for key in sorted(expect)]
    cluster.multi_get(items)
    stats = cluster.stats()
    assert stats["multi_gets"] == sum(g.multi_gets for g in cluster.groups)
    assert stats["batched_gets"] == len(items)
    assert stats["get_batches"] >= len(cluster.groups)
    assert stats["shed_gets"] == 0


def test_group_read_metrics_registered():
    from repro.obs.registry import MetricsRegistry

    cluster, expect = seeded_cluster()
    registry = MetricsRegistry()
    cluster.register_metrics(registry)
    cluster.multi_get([(key, 1) for key in sorted(expect)[:8]])
    snapshot = dict(registry.snapshot().values)
    prefix = f"mint.{cluster.name}.g0.group"
    assert f"{prefix}.multi_gets" in snapshot
    assert f"{prefix}.shed_gets" in snapshot
    total = sum(
        snapshot[f"mint.{cluster.name}.g{g.group_id}.group.batched_gets"]
        for g in cluster.groups
    )
    assert total == 8
