"""Unit tests for Mint: hashing, nodes, groups, clusters."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bifrost.slices import Slice
from repro.errors import (
    ClusterError,
    KeyNotFoundError,
    NodeDownError,
    ReplicationError,
)
from repro.indexing.types import IndexEntry, IndexKind
from repro.lsm.engine import LSMEngine
from repro.mint.cluster import (
    NODE_METRIC_VIEWS,
    MintCluster,
    MintConfig,
    storage_key,
)
from repro.mint.group import NodeGroup
from repro.mint.hashing import (
    rendezvous_ranking,
    stable_hash,
    weighted_rendezvous_ranking,
)
from repro.mint.node import StorageNode
from repro.obs.registry import MetricsRegistry
from repro.qindb.engine import QinDB, QinDBConfig


def make_node(name="n1"):
    return StorageNode(
        name,
        QinDB.with_capacity(
            16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
        ),
    )


def make_group(node_count=3, replicas=3):
    nodes = [make_node(f"n{i}") for i in range(node_count)]
    return NodeGroup(0, nodes, replica_count=replicas)


# ------------------------------------------------------------------- hashing
def test_stable_hash_is_deterministic():
    assert stable_hash(b"key") == stable_hash(b"key")
    assert stable_hash(b"key") != stable_hash(b"kez")
    assert stable_hash(b"key", salt=b"a") != stable_hash(b"key", salt=b"b")


def fresh_blake2b(key: bytes, salt: bytes) -> int:
    """The definition: a blake2b built for this one key."""
    digest = hashlib.blake2b(key, digest_size=8, salt=salt[:16].ljust(16, b"\0"))
    return int.from_bytes(digest.digest(), "little")


@settings(max_examples=150, deadline=None)
@example(key=b"", salt=b"", names=["a" * 17, "a" * 16, "b"])
@given(
    key=st.binary(max_size=48),
    salt=st.binary(max_size=24),
    names=st.lists(st.text(max_size=24), min_size=1, max_size=5, unique=True),
)
def test_built_once_hashers_match_a_fresh_blake2b(key, salt, names):
    """Each salted hasher is built once and copied per key; every digest
    is the one a fresh ``blake2b(key, salt=...)`` makes — under the
    empty salt, a salt past 16 bytes (truncated), and node names whose
    encodings run past 16 bytes — and the rankings order by it."""
    assert stable_hash(key) == fresh_blake2b(key, b"")
    assert stable_hash(key, salt=salt) == fresh_blake2b(key, salt)
    assert stable_hash(key, salt=salt) == stable_hash(key, salt=salt)
    scored = sorted(
        ((fresh_blake2b(key, name.encode()[:16]), name) for name in names),
        reverse=True,
    )
    expected = [name for _digest, name in scored]
    assert rendezvous_ranking(names, key) == expected
    assert weighted_rendezvous_ranking(
        [(name, 1.0) for name in names], key
    ) == expected
    drained = weighted_rendezvous_ranking([(name, 0.0) for name in names], key)
    assert drained == expected


def test_rendezvous_ranking_is_a_permutation():
    nodes = [f"node-{i}" for i in range(5)]
    ranking = rendezvous_ranking(nodes, b"some-key")
    assert sorted(ranking) == sorted(nodes)


def test_rendezvous_stability_under_membership_change():
    nodes = [f"node-{i}" for i in range(5)]
    keys = [f"key-{i}".encode() for i in range(300)]
    before = {k: rendezvous_ranking(nodes, k)[0] for k in keys}
    grown = nodes + ["node-5"]
    after = {k: rendezvous_ranking(grown, k)[0] for k in keys}
    moved = sum(1 for k in keys if before[k] != after[k])
    # Only ~1/6 of keys should move to the new node.
    assert moved / len(keys) < 0.35


# ---------------------------------------------------------------------- node
def test_node_operations_and_counters():
    node = make_node()
    node.put_batch([(b"k", 1, b"v")])
    assert node.get(b"k", 1) == b"v"
    assert node.engine.exists(b"k", 1)
    node.delete_batch([(b"k", 1)])
    assert (node.puts, node.gets, node.deletes) == (1, 1, 1)


def test_down_node_rejects_everything():
    node = make_node()
    node.put_batch([(b"k", 1, b"v")])
    node.fail()
    with pytest.raises(NodeDownError):
        node.get(b"k", 1)
    with pytest.raises(NodeDownError):
        node.put_batch([(b"k", 2, b"v")])
    with pytest.raises(NodeDownError):
        node.delete_batch([(b"k", 1)])


def test_node_recovery_restores_data():
    node = make_node()
    for index in range(20):
        node.put_batch([(f"k{index}".encode(), 1, bytes([index]) * 100)])
    node.engine.flush()
    node.fail()
    cost = node.recover()
    assert cost > 0
    assert node.is_up
    assert node.recoveries == 1
    assert node.get(b"k7", 1) == bytes([7]) * 100


def test_node_recover_while_up_is_a_noop():
    node = make_node()
    assert node.recover() == 0.0
    assert node.recoveries == 0


# --------------------------------------------------------------------- group
def test_group_validation():
    with pytest.raises(ClusterError):
        NodeGroup(0, [make_node()], replica_count=3)
    with pytest.raises(ClusterError):
        make_group(replicas=0)


def test_group_places_exact_replica_count():
    group = make_group(node_count=5, replicas=3)
    replicas = group.replicas_for(b"some-key")
    assert len(replicas) == 3
    assert len({n.name for n in replicas}) == 3


def test_group_write_goes_to_all_replicas():
    group = make_group()
    assert group.put(b"k", 1, b"v") == 3
    for node in group.replicas_for(b"k"):
        assert node.engine.get(b"k", 1) == b"v"


def test_group_read_survives_replica_failures():
    group = make_group()
    group.put(b"k", 1, b"v")
    replicas = group.replicas_for(b"k")
    replicas[0].fail()
    replicas[1].fail()
    assert group.get(b"k", 1) == b"v"  # third replica answers


def test_group_read_fails_when_all_replicas_down():
    group = make_group()
    group.put(b"k", 1, b"v")
    for node in group.replicas_for(b"k"):
        node.fail()
    with pytest.raises(ReplicationError):
        group.get(b"k", 1)


def test_group_write_with_some_nodes_down():
    group = make_group()
    group.replicas_for(b"k")[0].fail()
    assert group.put(b"k", 1, b"v") == 2


def test_group_write_fails_when_all_down():
    group = make_group()
    for node in group.nodes:
        node.fail()
    with pytest.raises(ReplicationError):
        group.put(b"k", 1, b"v")


def test_group_membership_changes():
    group = make_group(node_count=4)
    group.add_node(make_node("n9"))
    assert group.healthy_count == 5
    with pytest.raises(ClusterError):
        group.add_node(make_node("n9"))  # duplicate
    group.remove_node("n9")
    with pytest.raises(ClusterError):
        group.node("n9")
    # Cannot shrink below replica count.
    group.remove_node("n3")
    with pytest.raises(ClusterError):
        group.remove_node("n2")


def test_group_read_balances_hot_key_across_replicas():
    """N reads of one hot key spread over the replica set: least-loaded
    selection keeps any single node from serving more than ~half."""
    group = make_group()
    group.put(b"hot", 1, b"v" * 2048)
    reads = 90
    for _ in range(reads):
        assert group.get(b"hot", 1) == b"v" * 2048
    counts = [node.gets for node in group.replicas_for(b"hot")]
    assert sum(counts) == reads
    assert max(counts) <= reads // 2  # no node absorbs the group's load
    assert min(counts) > 0  # every healthy replica participates


def test_group_read_order_prefers_least_loaded_live_replica():
    group = make_group()
    group.put(b"k", 1, b"v")
    order = group.read_order(b"k")
    assert {node.name for node in order} == {
        node.name for node in group.replicas_for(b"k")
    }
    # Device time is not load: a busy clock alone leaves the head alone.
    order[0].engine.device.advance(10.0)
    assert group.read_order(b"k")[0] is order[0]
    # Busy the front-runner with reads served; it drops behind the idle
    # replicas.
    order[0].get(b"k", 1)
    assert group.read_order(b"k")[0] is not order[0]
    # A down replica sorts last regardless of its load.
    idle = group.read_order(b"k")[0]
    idle.fail()
    assert group.read_order(b"k")[-1] is idle


def test_group_balanced_read_failover_semantics_unchanged():
    group = make_group()
    group.put(b"k", 1, b"v")
    replicas = group.replicas_for(b"k")
    replicas[0].fail()
    for _ in range(10):
        assert group.get(b"k", 1) == b"v"
    assert replicas[0].gets == 0
    assert all(node.gets > 0 for node in replicas[1:])
    # A key absent on every live replica still raises KeyNotFoundError.
    from repro.errors import KeyNotFoundError

    with pytest.raises(KeyNotFoundError):
        group.get(b"absent", 1)
    # ...and all replicas down still raises ReplicationError.
    for node in replicas:
        node.fail()
    with pytest.raises(ReplicationError):
        group.get(b"k", 1)


def test_group_read_falls_through_replica_missing_the_key():
    """A replica that is up but lost the key (unrepaired crash) keeps
    being masked by the fan-out even when it sorts least-loaded."""
    group = make_group()
    replicas = group.replicas_for(b"k")
    for node in replicas[1:]:
        node.engine.put(b"k", 1, b"v")
    for _ in range(6):
        assert group.get(b"k", 1) == b"v"


def test_cluster_stats_expose_per_node_read_counts():
    cluster = MintCluster("dc1", MintConfig(group_count=1, nodes_per_group=3))
    cluster.put(b"hot", 1, b"v")
    for _ in range(30):
        cluster.get(b"hot", 1)
    stats = cluster.stats()
    per_node = stats["gets_per_node"]
    assert set(per_node) == {node.name for node in cluster.all_nodes}
    assert sum(per_node.values()) == stats["gets"] == 30
    assert max(per_node.values()) <= 15  # balanced, not pinned


@pytest.mark.parametrize(
    "engine_factory",
    [None, lambda name: LSMEngine.with_capacity(16 * 1024 * 1024)],
    ids=["qindb", "lsm"],
)
def test_node_metric_catalog_is_the_view_table(engine_factory):
    cluster = MintCluster(
        "dc1",
        MintConfig(group_count=1, node_capacity_bytes=16 * 1024 * 1024),
        engine_factory=engine_factory,
    )
    registry = MetricsRegistry()
    cluster.register_metrics(registry)
    cluster.put(b"key", 1, b"value")
    cluster.get(b"key", 1)
    node_path = cluster.all_nodes[0].name.replace("/", ".")
    moved = set()
    for family, views in NODE_METRIC_VIEWS.items():
        prefix = f"{family}.{node_path}"
        values = registry.collect(prefix)
        names = sorted(values)
        assert names == sorted(f"{prefix}.{name}" for name in views)
        for name in names:
            value = values[name]
            assert isinstance(value, float)
            if value:
                moved.add(name.removeprefix(f"{prefix}."))
    # a misspelt path would read 0.0 forever; these cannot after a put
    assert moved >= {"puts", "up", "user_bytes_written", "device_now_s"}
    if engine_factory is None:
        assert moved >= {"aof_bytes_appended", "memtable_items"}


def test_group_delete_reaches_live_replicas():
    group = make_group()
    group.put(b"k", 1, b"v")
    assert group.delete_batch([(b"k", 1)]) == 3
    with pytest.raises(Exception):
        group.get(b"k", 1)


# ------------------------------------------------------------------- cluster
def test_cluster_shape_and_placement():
    cluster = MintCluster("dc1", MintConfig(group_count=2, nodes_per_group=3))
    assert len(cluster.all_nodes) == 6
    group_a = cluster.group_for(b"key-1")
    assert group_a is cluster.group_for(b"key-1")  # stable


def test_cluster_put_get_delete():
    cluster = MintCluster("dc1", MintConfig(group_count=2, nodes_per_group=3))
    cluster.put(b"k", 1, b"v")
    assert cluster.get(b"k", 1) == b"v"
    cluster.drop_version(1)
    with pytest.raises(Exception):
        cluster.get(b"k", 1)


def test_cluster_ingest_and_query_slice():
    cluster = MintCluster("dc1", MintConfig(group_count=1, nodes_per_group=3))
    entries = [
        IndexEntry(IndexKind.FORWARD, b"url-1", b"terms terms"),
        IndexEntry(IndexKind.INVERTED, b"term-1", b"url-1\nurl-2"),
    ]
    item = Slice.pack("s1", 1, IndexKind.FORWARD, entries)
    assert cluster.ingest_slice(item) == 2
    assert cluster.query(IndexKind.FORWARD, b"url-1", 1) == b"terms terms"
    assert cluster.query(IndexKind.INVERTED, b"term-1", 1) == b"url-1\nurl-2"


def test_cluster_kind_prefix_prevents_collisions():
    assert storage_key(IndexKind.FORWARD, b"x") != storage_key(
        IndexKind.SUMMARY, b"x"
    )
    cluster = MintCluster("dc1", MintConfig(group_count=1, nodes_per_group=3))
    cluster.put(storage_key(IndexKind.FORWARD, b"x"), 1, b"fwd")
    cluster.put(storage_key(IndexKind.SUMMARY, b"x"), 1, b"sum")
    assert cluster.query(IndexKind.FORWARD, b"x", 1) == b"fwd"
    assert cluster.query(IndexKind.SUMMARY, b"x", 1) == b"sum"


def test_cluster_drop_version():
    cluster = MintCluster("dc1", MintConfig(group_count=1, nodes_per_group=3))
    entries = [IndexEntry(IndexKind.FORWARD, b"url-1", b"v1")]
    cluster.ingest_slice(Slice.pack("s1", 1, IndexKind.FORWARD, entries))
    entries2 = [IndexEntry(IndexKind.FORWARD, b"url-1", b"v2")]
    cluster.ingest_slice(Slice.pack("s2", 2, IndexKind.FORWARD, entries2))
    assert cluster.drop_version(1) == 1
    with pytest.raises(Exception):
        cluster.query(IndexKind.FORWARD, b"url-1", 1)
    assert cluster.query(IndexKind.FORWARD, b"url-1", 2) == b"v2"
    assert cluster.drop_version(1) == 0  # idempotent


def test_cluster_dedup_entry_resolves_across_versions():
    cluster = MintCluster("dc1", MintConfig(group_count=1, nodes_per_group=3))
    v1 = [IndexEntry(IndexKind.SUMMARY, b"url", b"abstract")]
    cluster.ingest_slice(Slice.pack("s1", 1, IndexKind.SUMMARY, v1))
    v2 = [IndexEntry(IndexKind.SUMMARY, b"url", None)]  # deduplicated
    cluster.ingest_slice(Slice.pack("s2", 2, IndexKind.SUMMARY, v2))
    assert cluster.query(IndexKind.SUMMARY, b"url", 2) == b"abstract"


def test_cluster_stats_aggregate():
    cluster = MintCluster("dc1", MintConfig(group_count=2, nodes_per_group=3))
    cluster.put(b"k", 1, b"v" * 100)
    stats = cluster.stats()
    assert stats["nodes"] == 6
    assert stats["healthy_nodes"] == 6
    assert stats["puts"] == 3
    assert stats["user_bytes_written"] > 300


def test_cluster_config_validation():
    with pytest.raises(Exception):
        MintConfig(group_count=0)
    with pytest.raises(Exception):
        MintConfig(nodes_per_group=2, replica_count=3)


# ------------------------------------------------------------------ batching
def items_for(count, prefix="bk"):
    return [
        (f"{prefix}-{i:03d}".encode(), 1, f"val-{i}".encode())
        for i in range(count)
    ]


def test_group_put_batch_matches_per_key_puts():
    batched = make_group(node_count=4, replicas=2)
    sequential = make_group(node_count=4, replicas=2)
    items = items_for(40)
    written = batched.put_batch(items)
    assert written == sum(sequential.put(*item) for item in items)
    for key, version, value in items:
        assert batched.get(key, version) == value
    # Replica placement is unchanged: node-by-node contents agree.
    for b_node, s_node in zip(batched.nodes, sequential.nodes):
        assert b_node.puts == s_node.puts


def test_group_put_batch_is_one_engine_batch_per_node():
    group = make_group(node_count=3, replicas=3)
    group.put_batch(items_for(30))
    for node in group.nodes:
        stats = node.engine.stats()
        assert stats.put_batches == 1
        assert stats.batched_puts == 30


def test_group_put_batch_down_node_drops_only_its_sub_batch():
    group = make_group(node_count=3, replicas=2)
    group.nodes[0].fail()
    items = items_for(30)
    written = group.put_batch(items)
    assert written < 2 * len(items)  # the down node wrote nothing
    for key, version, value in items:  # every key still readable
        assert group.get(key, version) == value
    assert group.nodes[0].puts == 0


def test_group_put_batch_raises_when_no_live_replica():
    group = make_group(node_count=3, replicas=1)
    for node in group.nodes:
        node.fail()
    with pytest.raises(ReplicationError):
        group.put_batch(items_for(5))


def test_node_put_batch_falls_back_for_engines_without_batches():
    from repro.lsm.engine import LSMConfig, LSMEngine

    node = StorageNode(
        "lsm",
        LSMEngine.with_capacity(
            16 * 1024 * 1024,
            config=LSMConfig(
                memtable_bytes=256 * 1024, level1_max_bytes=1024 * 1024
            ),
        ),
    )
    items = items_for(10)
    node.put_batch(items)
    assert node.puts == 10
    for key, version, value in items:
        assert node.get(key, version) == value


def test_cluster_put_batch_partitions_by_group():
    cluster = MintCluster("dc1", MintConfig(group_count=3, nodes_per_group=3))
    items = items_for(60)
    written = cluster.put_batch(items)
    assert written == 60 * cluster.config.replica_count
    for key, version, value in items:
        assert cluster.get(key, version) == value


def test_ingest_slice_lands_as_engine_batches():
    cluster = MintCluster("dc1", MintConfig(group_count=2, nodes_per_group=3))
    entries = [
        IndexEntry(IndexKind.FORWARD, f"doc-{i:03d}".encode(), b"v" * 50)
        for i in range(40)
    ]
    piece = Slice.pack("v1-fwd-0", 1, IndexKind.FORWARD, entries)
    stored = cluster.ingest_slice(piece)
    assert stored == 40
    stats = cluster.stats()
    assert stats["batched_puts"] == 40 * cluster.config.replica_count
    assert stats["put_batches"] >= 1
    assert stats["puts"] == stats["batched_puts"]  # no stray single puts
    for entry in entries:
        skey = storage_key(entry.kind, entry.key)
        assert cluster.get(skey, 1) == entry.value


def test_group_read_skips_down_replicas_and_counts_skips():
    """A down replica reached during failover is skipped proactively,
    and the skip is visible in the node's stats rather than costing a
    ``NodeDownError`` round-trip."""
    group = make_group()
    group.put(b"k", 1, b"v")
    replicas = group.replicas_for(b"k")
    replicas[0].fail()
    # A live replica answers first (down nodes sort last), so no skip.
    assert group.get(b"k", 1) == b"v"
    assert replicas[0].skipped_gets == 0
    # A version nobody has walks the whole order: the live replicas miss
    # and the down one is skipped, not asked.
    with pytest.raises(KeyNotFoundError):
        group.get(b"k", 2)
    assert replicas[0].skipped_gets == 1
    assert replicas[0].gets == 0  # the down node performed no read
    # All replicas down: every one is counted skipped, then the read
    # fails group-wide.
    for node in replicas[1:]:
        node.fail()
    with pytest.raises(ReplicationError):
        group.get(b"k", 1)
    assert [node.skipped_gets for node in replicas] == [2, 1, 1]


def test_cluster_stats_expose_skipped_gets():
    cluster = MintCluster(
        "dc", MintConfig(group_count=1, nodes_per_group=3,
                         node_capacity_bytes=16 * 1024 * 1024)
    )
    cluster.put(b"k", 1, b"v")
    group = cluster.groups[0]
    for node in group.replicas_for(b"k"):
        node.fail()
    with pytest.raises(ReplicationError):
        cluster.get(b"k", 1)
    per_node = cluster.stats()["skipped_gets_per_node"]
    assert sum(per_node.values()) == 3
