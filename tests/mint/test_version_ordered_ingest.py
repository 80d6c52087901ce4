"""Version safety under pipelined cycles: late slices vs eviction.

When update cycles overlap, version N's tail slices can still be in
flight while N+1 finishes and the retention policy drops an old version.
Two invariants keep that safe:

* versions are independent keyspaces — ``(key, version)`` — so N+1's
  arrivals never clobber N's, whatever order slices land in;
* once :meth:`MintCluster.drop_version` retires a version, any late
  slice of it is dropped (counted), never resurrected as orphan bytes.
"""

import pytest

from repro.bifrost.slices import Slice
from repro.errors import KeyNotFoundError
from repro.indexing.types import IndexEntry, IndexKind
from repro.mint.cluster import MintCluster, MintConfig
from repro.mint.group import NodeGroup
from repro.mint.node import StorageNode
from repro.qindb.engine import QinDB, QinDBConfig


def make_cluster():
    return MintCluster("dc1", MintConfig(group_count=2, nodes_per_group=3))


def version_slices(version, prefix="url", count=6):
    """Two slices per version, split across kinds."""
    first = [
        IndexEntry(IndexKind.FORWARD, f"{prefix}-{i}".encode(), f"v{version}-{i}".encode())
        for i in range(count // 2)
    ]
    second = [
        IndexEntry(IndexKind.INVERTED, f"term-{i}".encode(), f"v{version}-{i}".encode())
        for i in range(count - count // 2)
    ]
    return [
        Slice.pack(f"v{version}-a", version, IndexKind.FORWARD, first),
        Slice.pack(f"v{version}-b", version, IndexKind.INVERTED, second),
    ]


def cluster_state(cluster):
    state = {}
    for version, keys in cluster.version_keys.items():
        state[version] = {key: cluster.get(key, version) for key in set(keys)}
    return state


def test_interleaved_ingest_matches_serial():
    """N delayed behind N+1 must land the same final state as serial."""
    serial = make_cluster()
    for item in version_slices(1) + version_slices(2):
        serial.ingest_slice(item)

    interleaved = make_cluster()
    v1 = version_slices(1)
    v2 = version_slices(2)
    # v1's first slice lands, then ALL of v2, then v1's delayed tail.
    for item in [v1[0], *v2, v1[1]]:
        interleaved.ingest_slice(item)

    assert cluster_state(interleaved) == cluster_state(serial)
    assert interleaved.stale_slices_dropped == 0


def test_late_slice_of_retired_version_is_dropped():
    cluster = make_cluster()
    v1 = version_slices(1)
    cluster.ingest_slice(v1[0])
    for item in version_slices(2):
        cluster.ingest_slice(item)
    assert cluster.drop_version(1) > 0

    # v1's tail arrives after the eviction: dropped, not resurrected.
    assert cluster.ingest_slice(v1[1]) == 0
    assert cluster.stale_slices_dropped == 1
    assert 1 not in cluster.version_keys
    assert cluster.stats()["stale_slices_dropped"] == 1

    # v2 is untouched.
    assert cluster.query(IndexKind.FORWARD, b"url-0", 2) == b"v2-0"


def test_drop_version_then_reingest_same_keys_under_new_version():
    """Retirement is per-version: the same keys live on under v3."""
    cluster = make_cluster()
    for item in version_slices(1):
        cluster.ingest_slice(item)
    cluster.drop_version(1)
    for item in version_slices(3):
        cluster.ingest_slice(item)
    assert cluster.query(IndexKind.FORWARD, b"url-1", 3) == b"v3-1"
    with pytest.raises(KeyNotFoundError):
        cluster.query(IndexKind.FORWARD, b"url-1", 1)


# ------------------------------------------------------- delete_batch layers
def make_group():
    nodes = [
        StorageNode(
            f"n{i}",
            QinDB.with_capacity(
                16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
            ),
        )
        for i in range(3)
    ]
    return NodeGroup(0, nodes, replica_count=3)


def test_group_delete_batch_matches_serial_deletes():
    batched, serial = make_group(), make_group()
    items = [(f"k{i}".encode(), 1) for i in range(8)]
    for group in (batched, serial):
        for key, version in items:
            group.put(key, version, b"value-" + key)

    assert batched.delete_batch(items) == 24  # 8 keys x 3 replicas
    assert batched.delete_batch([]) == 0
    for key, version in items:
        serial.delete_batch([(key, version)])
    for key, version in items:
        for group in (batched, serial):
            assert not group.nodes[0].engine.exists(key, version)
    assert [n.deletes for n in batched.nodes] == [n.deletes for n in serial.nodes]


def test_engine_delete_batch_validates_before_mutating():
    engine = QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
    )
    engine.put(b"a", 1, b"va")
    engine.put(b"b", 1, b"vb")

    # A missing key anywhere in the batch leaves the whole batch unapplied.
    with pytest.raises(KeyNotFoundError):
        engine.delete_batch([(b"a", 1), (b"missing", 1)])
    assert engine.get(b"a", 1) == b"va"

    # A duplicate pair in one batch is a caller bug, caught up front.
    with pytest.raises(KeyNotFoundError):
        engine.delete_batch([(b"b", 1), (b"b", 1)])
    assert engine.get(b"b", 1) == b"vb"

    engine.delete_batch([(b"a", 1), (b"b", 1)])
    assert not engine.exists(b"a", 1)
    assert not engine.exists(b"b", 1)
