"""Tiered integrity hashing: leaves, Merkle tree, seal, audit economics.

The design under test: ingest pays one CRC32 per record plus one BLAKE2b
seal per slice; audits full-hash only ``ceil(log2(n)) + 1`` sampled
records per slice (vs the naive re-hash-everything baseline), and a
divergence triggers a full leaf sweep that repairs from checksum-verified
peers.
"""

import math

import pytest

from repro.bifrost.signature import signature
from repro.bifrost.slices import Slice
from repro.errors import NodeDownError
from repro.faults.repair import ReplicaRepairer
from repro.indexing.types import IndexEntry, IndexKind
from repro.mint.cluster import MintCluster, MintConfig, storage_key
from repro.mint.integrity import (
    IntegrityIndex,
    combine_checksums,
    leaf_checksum,
    merkle_levels,
    seal_summary,
)


def summaries(cluster, version):
    """The integrity summaries of one version's slices."""
    return [
        summary for summary in cluster.integrity.all_summaries()
        if summary.version == version
    ]


def signed_entries(count, value_bytes=96, kind=IndexKind.FORWARD):
    built = []
    for i in range(count):
        value = bytes([i % 251]) * value_bytes
        built.append(
            IndexEntry(kind, f"key-{i:04d}".encode(), value, signature=signature(value))
        )
    return built


def make_cluster(name="dc1", **overrides):
    return MintCluster(
        name, MintConfig(group_count=1, nodes_per_group=3, **overrides)
    )


def ingest(cluster, version, entries, slice_id=None):
    item = Slice.pack(
        slice_id or f"v{version}-s0", version, entries[0].kind, entries
    )
    cluster.ingest_slice(item)
    return item


# ------------------------------------------------------------------- leaves
def test_leaf_checksum_covers_every_field():
    base = leaf_checksum(b"k", 1, b"value")
    assert leaf_checksum(b"k", 1, b"value") == base
    assert leaf_checksum(b"j", 1, b"value") != base
    assert leaf_checksum(b"k", 2, b"value") != base
    assert leaf_checksum(b"k", 1, b"valuf") != base


def test_leaf_checksum_dedup_marker_distinct_from_empty_value():
    assert leaf_checksum(b"k", 1, None) != leaf_checksum(b"k", 1, b"")


def test_merkle_levels_shapes():
    assert merkle_levels([7]) == [[7]]
    two = merkle_levels([1, 2])
    assert two == [[1, 2], [combine_checksums(1, 2)]]
    # Odd leaf promotes unchanged.
    three = merkle_levels([1, 2, 3])
    assert three[1] == [combine_checksums(1, 2), 3]
    assert three[2] == [combine_checksums(combine_checksums(1, 2), 3)]


def test_merkle_root_changes_with_any_leaf():
    leaves = list(range(10, 23))
    root = merkle_levels(leaves)[-1][0]
    for index in range(len(leaves)):
        damaged = list(leaves)
        damaged[index] ^= 0xFF
        assert merkle_levels(damaged)[-1][0] != root


def test_seal_binds_slice_id_and_root():
    assert seal_summary("s1", 7) == seal_summary("s1", 7)
    assert seal_summary("s1", 7) != seal_summary("s2", 7)
    assert seal_summary("s1", 7) != seal_summary("s1", 8)


def test_sample_size_is_logarithmic_and_capped():
    index = IntegrityIndex()
    assert index.sample_size(0) == 0
    assert index.sample_size(1) == 1
    assert index.sample_size(2) == 2
    assert index.sample_size(64) == 7  # ceil(log2(64)) + 1
    assert index.sample_size(1000) == 11
    assert index.sample_size(3) == 3  # never more than n


# ------------------------------------------------------------------ absorb
def test_absorb_tracks_counters_and_verifies_paths():
    cluster = make_cluster()
    entries = signed_entries(9)
    ingest(cluster, 1, entries)
    counters = cluster.integrity.counters
    assert counters.ingest_checksums == 9
    assert counters.seal_signatures == 1  # ONE crypto hash for the slice
    assert counters.records_tracked == 9
    assert counters.slices_tracked == 1
    (summary,) = summaries(cluster, 1)
    assert summary.record_count == 9
    assert summary.seal == seal_summary(summary.slice_id, summary.root)
    # Every leaf's Merkle path folds up to the sealed root.
    for index in range(summary.record_count):
        assert summary.verify_path(index, summary.levels[0][index])
        assert not summary.verify_path(index, summary.levels[0][index] ^ 1)


def test_drop_version_prunes_summaries():
    cluster = make_cluster()
    ingest(cluster, 1, signed_entries(4))
    ingest(cluster, 2, signed_entries(4, value_bytes=64), slice_id="v2-s0")
    cluster.drop_version(1)
    assert summaries(cluster, 1) == []
    assert cluster.integrity.counters.slices_tracked == 1
    assert cluster.integrity.counters.records_tracked == 4


# ------------------------------------------------------------------- audits
def test_tiered_audit_is_logarithmic_in_slice_size():
    cluster = make_cluster()
    ingest(cluster, 1, signed_entries(64))
    repairer = ReplicaRepairer()
    tiered = repairer.audit_cluster(cluster)
    naive = repairer.audit_cluster(cluster, naive=True)
    assert tiered.clean and naive.clean
    assert naive.records_sampled == 64 * 3  # every record, every replica
    # Per audited slice: at most ceil(log2(n)) + 2 full hashes (the
    # sampled signatures plus the seal re-check) — O(log n), not O(n).
    bound = math.ceil(math.log2(64)) + 2
    assert tiered.full_hashes <= bound * tiered.slices_audited
    assert naive.full_hashes == (64 + 1) * 3
    assert tiered.full_hashes < naive.full_hashes / 5


def damage(node, key, version):
    """Flip one stored value byte of ``node``'s copy (media damage)."""
    (segment_id, offset, length), *_flags = node.engine.memtable.get(key, version)
    node.engine.aofs.segment(segment_id)._unit.corrupt(offset + length - 1, 0x40)


def test_audit_counts_a_damaged_copy_and_reads_fail_over():
    """Bitrot on one replica: the audit does not stop at the unreadable
    copy.  It counts it divergent and leaves it in place (a version is
    written once), and a query still reads the true value from a peer."""
    cluster = make_cluster()
    entries = signed_entries(3)
    ingest(cluster, 1, entries)
    victim_key = storage_key(entries[0].kind, entries[0].key)
    node = cluster.group_for(victim_key).replicas_for(victim_key)[0]
    damage(node, victim_key, 1)
    result = ReplicaRepairer().audit_cluster(cluster)
    assert not result.clean
    assert result.leaf_mismatches == 1
    assert result.divergent_records == 1
    assert result.records_repaired == 0
    assert cluster.query(entries[0].kind, entries[0].key, 1) == entries[0].value


def test_audit_detects_and_repairs_damaged_replica():
    """A node that restarted before a flush (its unflushed tail lost) and
    then took bitrot in the same slice: the damaged copy triggers the
    sweep, which re-lands every record the node lacks from a verified
    peer and counts the damaged copy without re-putting it."""
    cluster = make_cluster()
    entries = signed_entries(64)  # ~8.4 KB: the last page is unflushed
    ingest(cluster, 1, entries)
    node = cluster.all_nodes[0]
    node.fail()
    node.recover()
    (summary,) = summaries(cluster, 1)
    lost = [
        item_key for item_key in summary.item_keys
        if node.engine.peek(*item_key) is None
    ]
    assert lost
    damaged = summary.item_keys[0]  # the tiered sample always reads it
    damage(node, *damaged)
    repairer = ReplicaRepairer()
    result = repairer.audit_node(cluster, node)
    assert result.leaf_mismatches >= 1
    assert result.full_sweeps == 1
    assert result.divergent_records == 1 + len(lost)
    assert result.records_repaired == len(lost)
    values = dict(zip(summary.item_keys, (entry.value for entry in entries)))
    for item_key in lost:
        assert node.get(*item_key) == values[item_key]
    again = repairer.audit_node(cluster, node)
    assert again.divergent_records == 1 and again.records_repaired == 0
    entry = entries[0]
    assert cluster.query(entry.kind, entry.key, 1) == entry.value


def test_audit_detects_signature_mismatch_against_build_sig():
    """A value forged before ingest, carrying the original build
    signature, has a consistent CRC tree by construction (every leaf is
    computed from the forged bytes) and still fails the full-hash tier:
    the build signature rode the slice."""
    cluster = make_cluster()
    entries = signed_entries(2)
    original = entries[0]
    forged = IndexEntry(
        original.kind, original.key, b"forged-but-consistent",
        signature=original.signature,
    )
    ingest(cluster, 1, [forged] + entries[1:])
    result = ReplicaRepairer().audit_cluster(cluster)
    assert result.signature_mismatches >= 1
    assert not result.clean


def test_audit_requires_integrity_index_and_live_node():
    cluster = make_cluster()
    down = cluster.all_nodes[0]
    down.fail()
    with pytest.raises(NodeDownError):
        ReplicaRepairer().audit_node(cluster, down)
