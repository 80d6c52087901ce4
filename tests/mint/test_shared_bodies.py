"""Shared record bodies are not a second behaviour.

A slice's record bodies and their checksums are built once for the
fleet, and every replica in every data center keeps the same objects on
its flash.  These tests hold that to the definition of the format
(``encode_frame``, one record at a time, the replica's own sequences) on
every placement the group layer has, show that damage and crashes still
land on one replica, and pin what the write descent costs the host.
"""

import sys
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bifrost.encoding import SliceDecodes
from repro.bifrost.signature import signature
from repro.errors import CorruptionError
from repro.bifrost.slices import Slice
from repro.faults.repair import ReplicaRepairer
from repro.indexing.types import IndexEntry, IndexKind
from repro.mint import cluster as cluster_module
from repro.mint import group as group_module
from repro.mint import integrity as integrity_module
from repro.mint.cluster import MintCluster, MintConfig, storage_key
from repro.mint.group import NodeGroup
from repro.mint.integrity import leaf_checksum
from repro.mint.node import StorageNode
from repro.obs.registry import MetricsRegistry
from repro.qindb import aof as aof_module
from repro.qindb import records as records_module
from repro.qindb.aof import AofManager
from repro.qindb.checkpoint import crash, recover
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.memtable import ItemColumns, Memtable, RunCopies
from repro.qindb.records import Bodies, RecordType, encode_frame


def summaries(cluster, version):
    """The integrity summaries of one version's slices."""
    return [
        summary for summary in cluster.integrity.all_summaries()
        if summary.version == version
    ]


def make_node(name):
    return StorageNode(
        name,
        QinDB.with_capacity(
            16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
        ),
    )


def make_group(node_count, replicas=3):
    return NodeGroup(
        0, [make_node(f"n{i}") for i in range(node_count)], replicas
    )


def triples(count, version=1, tag=b"k", dedup_every=4):
    """Values of varied length; every ``dedup_every``-th arrives value-less."""
    return [
        (
            tag + b"-%04d" % i,
            version,
            None if i % dedup_every == 3 else bytes([i % 251]) * (20 + 7 * (i % 9)),
        )
        for i in range(count)
    ]


def image(engine):
    """Every byte the engine has appended, segment after segment."""
    return b"".join(
        segment._unit.read(0, segment.size) for segment in engine.aofs.segments
    )


def frames_of(items, first_sequence=1):
    """The definition: one ``encode_frame`` per record, in order."""
    return b"".join(
        encode_frame(
            int(RecordType.PUT_DEDUP if value is None else RecordType.PUT_VALUE),
            key, value or b"", version, sequence,
        )
        for sequence, (key, version, value) in enumerate(items, first_sequence)
    )


class Expected:
    """What each node should hold: the items it was a write replica of,
    in arrival order, framed under its own sequence numbers."""

    def __init__(self):
        self.items = {}

    def wrote(self, nodes, item):
        for node in nodes:
            self.items.setdefault(node.name, []).append(item)

    def check(self, nodes):
        for node in nodes:
            assert image(node.engine) == frames_of(self.items.get(node.name, [])), node.name


# ----------------------------------------------------------------------
# (a) every replica's AOF is the definition's bytes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("node_count", [3, 5])
def test_replica_images_are_encode_frame_of_their_sub_batch(node_count):
    group = make_group(node_count)
    expected = Expected()
    for version in (1, 2):
        batch = triples(60, version)
        assert group.put_batch(batch) == 3 * len(batch)
        for item in batch:
            expected.wrote(group.replicas_for(item[0]), item)
    expected.check(group.nodes)
    if node_count == 5:
        shares = {len(expected.items[node.name]) for node in group.nodes}
        assert len(shares) > 1  # the sub-batches really differ


def test_down_node_misses_its_sub_batch_and_the_rest_are_exact():
    group = make_group(5)
    expected = Expected()
    first, second = triples(40, 1), triples(40, 2)
    group.put_batch(first)
    for item in first:
        expected.wrote(group.replicas_for(item[0]), item)
    down = group.nodes[1]
    down.fail()
    written = group.put_batch(second)
    for item in second:
        live = [n for n in group.replicas_for(item[0]) if n is not down]
        expected.wrote(live, item)
    missed = [i for i in second if down in group.replicas_for(i[0])]
    assert written == 3 * len(second) - len(missed)
    assert group.repair_backlog[down.name] == [
        ("put", key, version) for key, version, _value in missed
    ]
    expected.check(group.nodes)


def test_open_transition_dual_applies_the_same_bodies():
    group = make_group(3)
    expected = Expected()
    before = triples(30, 1)
    group.put_batch(before)
    for item in before:
        expected.wrote(group.replicas_for(item[0]), item)
    group.begin_transition()
    group.add_node(make_node("n9"))
    during = triples(60, 2)
    group.put_batch(during)
    moved = 0
    for item in during:
        targets = list(group.replicas_for(item[0]))
        extra = [n for n in group.old_replicas_for(item[0]) if n not in targets]
        moved += bool(extra)
        expected.wrote(targets + extra, item)
    assert moved  # some keys did write to four nodes
    expected.check(group.nodes)


def test_moving_slot_writes_both_owners_from_one_build(monkeypatch):
    cluster = MintCluster(
        "dc1",
        MintConfig(group_count=2, nodes_per_group=3,
                   node_capacity_bytes=16 * 1024 * 1024),
    )
    batch = triples(80, 1)
    slot = cluster.slot_for(batch[0][0])
    owner = cluster.group_for(batch[0][0])
    target = next(g for g in cluster.groups if g is not owner)
    cluster.begin_slot_move(slot, target)
    built = []
    build = records_module.build_bodies

    def counting(types, keys, versions, values):
        bodies, checksums = build(types, keys, versions, values)
        built.append(len(bodies))
        return bodies, checksums

    monkeypatch.setattr(records_module, "build_bodies", counting)
    cluster.put_batch(batch)
    assert built == [len(batch)]  # once, not once per group or replica
    expected = Expected()
    for item in batch:
        if cluster.slot_for(item[0]) == slot:
            groups = [owner, target]
        else:
            groups = [cluster.group_for(item[0])]
        for group in groups:
            expected.wrote(group.replicas_for(item[0]), item)
    assert any(cluster.slot_for(item[0]) == slot for item in batch[1:])
    expected.check(cluster.all_nodes)


# ----------------------------------------------------------------------
# (b) pre-built or not, an engine ends in the same state
# ----------------------------------------------------------------------
def engine_state(engine):
    return (
        image(engine),
        [
            (key, version, location, deduplicated, deleted, sequence)
            for key, version, (location, deduplicated, deleted, sequence)
            in engine.memtable.items()
        ],
        engine.gc_table.snapshot(),
        engine.stats(),
        engine._sequence,
    )


def test_prebuilt_batch_and_plain_triples_store_identically():
    plain, prebuilt, taken = (make_node(f"e{i}").engine for i in range(3))
    batches = [
        triples(50, 1), triples(50, 2, dedup_every=2), triples(20, 1, b"j")
    ]
    for batch in batches:
        plain.put_batch(batch)
        prebuilt.put_batch(Bodies(batch))
        # a sub-batch cut from a larger shared build
        wider = Bodies([(b"other", 9, b"x")] + batch + [(b"more", 9, None)])
        taken.put_batch(wider.take(range(1, len(batch) + 1)))
    assert engine_state(plain) == engine_state(prebuilt) == engine_state(taken)
    assert plain.stats().put_batches == 3
    for engine in (plain, prebuilt, taken):
        engine.delete_batch([(key, v) for key, v, _ in batches[1][:10]])
    assert engine_state(plain) == engine_state(prebuilt) == engine_state(taken)


# ----------------------------------------------------------------------
# (d) the integrity leaf is the stored body's checksum
# ----------------------------------------------------------------------
def signed_entries(count, kind=IndexKind.FORWARD):
    built = []
    for i in range(count):
        value = None if i % 5 == 4 else bytes([i % 251]) * (30 + i)
        built.append(
            IndexEntry(
                kind, f"key-{i:04d}".encode(), value,
                signature=None if value is None else signature(value),
            )
        )
    return built


def test_integrity_leaves_are_leaf_checksums_of_the_stored_bytes():
    cluster = MintCluster("dc1", MintConfig(group_count=2, nodes_per_group=3))
    base = [
        IndexEntry(e.kind, e.key, b"base", signature=signature(b"base"))
        for e in signed_entries(40)
    ]
    cluster.ingest_slice(Slice.pack("v1-s0", 1, IndexKind.FORWARD, base))
    entries = signed_entries(40)
    cluster.ingest_slice(Slice.pack("v2-s0", 2, IndexKind.FORWARD, entries))
    (summary,) = summaries(cluster, 2)
    assert cluster.integrity.counters.ingest_checksums == 80
    for index, ((key, version), dedup) in enumerate(
        zip(summary.item_keys, summary.dedup)
    ):
        for node in cluster.group_for(key).replicas_for(key):
            stored_value, stored_dedup = node.engine.peek(key, version)
            assert stored_dedup == dedup
            leaf = leaf_checksum(key, version, stored_value)
            assert leaf == summary.levels[0][index]
            # ... which is the CRC of the body as it lies in the AOF
            location, _r, _d, _sequence = node.engine.memtable.get(key, version)
            segment_id, offset, length = location
            unit = node.engine.aofs.segment(segment_id)._unit
            frame = unit.read(offset, length)
            assert zlib.crc32(frame[records_module.HEAD_SIZE:]) == leaf
    assert ReplicaRepairer().audit_cluster(cluster).clean


# ----------------------------------------------------------------------
# Host-cost pins for the write descent
# ----------------------------------------------------------------------
def fleet_of(count, kind=IndexKind.FORWARD):
    """``count`` data centers of one 3-replica group each, sharing the
    fleet's slice store as one ``DirectLoad`` wires them."""
    decodes = SliceDecodes({kind: count})
    return [
        MintCluster(
            f"dc{index}", MintConfig(group_count=1, nodes_per_group=3),
            wire_decodes=decodes,
        )
        for index in range(count)
    ]


def stored_body(node, key, version):
    """The body a replica's flash holds for a record (a whole-piece read
    returns the piece itself)."""
    location, _r, _d, _sequence = node.engine.memtable.get(key, version)
    segment_id, offset, length = location
    unit = node.engine.aofs.segment(segment_id)._unit
    return unit.read(offset + records_module.HEAD_SIZE, length - records_module.HEAD_SIZE)


def stored_head(node, key, version):
    """The head a replica's flash holds for a record (a whole piece)."""
    location, _r, _d, _sequence = node.engine.memtable.get(key, version)
    segment_id, offset, _length = location
    unit = node.engine.aofs.segment(segment_id)._unit
    return unit.read_many([(offset, records_module.HEAD_SIZE)])[0][0]


def test_write_descent_host_cost_pins(monkeypatch):
    """Wall time wanders; these do not.  One slice of N records into
    three data centers of one 3-replica group each: N long CRC passes
    and N body builds for the whole fleet (the parent built once per
    data center, 3N), no ``leaf_checksum`` at ingest, and beneath
    ``QinDB.put_batch`` no ``bytes.join`` (parent: one per unit) and no
    head-plus-body concatenation (parent: one per replica-record, 9N) —
    every replica's flash keeps the one body object the build made.
    The nine replicas frame the slice at the same sequences, so its N
    heads are made once too: N 8-byte CRC updates for the fleet (the
    parent made one per replica-record, 9N), and every replica keeps the
    one head object per frame.  The slice's Merkle tree is built once
    for the fleet as well: N - 1 combines (also 8 bytes; the parent
    built one per data center, 3(N - 1)), every summary holding the same
    levels, their leaves the batch's checksum list."""
    clusters = fleet_of(3)
    entries = [
        IndexEntry(
            IndexKind.FORWARD, f"key-{i:04d}".encode(), bytes([i % 251]) * 96,
            signature=signature(bytes([i % 251]) * 96),
        )
        for i in range(200)
    ]
    item = Slice.pack("v1-s0", 1, IndexKind.FORWARD, entries)
    count = len(entries)

    crc_lengths = []
    crc32 = zlib.crc32

    def counting_crc32(data, value=0):
        crc_lengths.append(len(data))
        return crc32(data, value)

    monkeypatch.setattr(zlib, "crc32", counting_crc32)
    bodies_built = []
    build = records_module.build_bodies

    def counting_build(types, keys, versions, values):
        bodies, checksums = build(types, keys, versions, values)
        bodies_built.append(len(bodies))
        return bodies, checksums

    monkeypatch.setattr(records_module, "build_bodies", counting_build)
    leaf_calls = []
    monkeypatch.setattr(
        integrity_module, "leaf_checksum",
        lambda *args: leaf_calls.append(args) or leaf_checksum(*args),
    )
    # ``bytes.join`` calls made anywhere beneath ``QinDB.put_batch``
    joins_under_put_batch = []
    put_batch_code = QinDB.put_batch.__code__
    depth = 0

    def profile(frame, event, arg):
        nonlocal depth
        if frame.f_code is put_batch_code and event in ("call", "return"):
            depth += 1 if event == "call" else -1
        elif event == "c_call" and depth and getattr(arg, "__name__", "") == "join":
            joins_under_put_batch.append(arg)

    sys.setprofile(profile)
    try:
        for cluster in clusters:
            assert cluster.ingest_slice(item) == count
    finally:
        sys.setprofile(None)

    assert sum(1 for length in crc_lengths if length > 16) == count
    # per record, once for the fleet: one 8-byte update seeded with the
    # body checksum; per slice, once for the fleet: N - 1 combines of two
    # leaves
    assert crc_lengths.count(8) == count + (count - 1) == 399
    assert bodies_built == [count]
    assert leaf_calls == []
    assert joins_under_put_batch == []
    for entry in entries:
        key = storage_key(entry.kind, entry.key)
        bodies = [
            stored_body(node, key, 1)
            for cluster in clusters for node in cluster.all_nodes
        ]
        assert len(bodies) == 9 and all(body is bodies[0] for body in bodies)
        heads = [
            stored_head(node, key, 1)
            for cluster in clusters for node in cluster.all_nodes
        ]
        assert all(head is heads[0] for head in heads)
    for cluster in clusters:
        stats = cluster.stats()
        assert (stats["put_batches"], stats["batched_puts"]) == (3, 3 * count)
        assert cluster.integrity.counters.ingest_checksums == count
    assert len(clusters[0].wire_decoder.decodes) == 0  # every DC took it
    levels = [
        summary.levels for cluster in clusters for summary in summaries(cluster, 1)
    ]
    assert len(levels) == 3 and all(level is levels[0] for level in levels)
    assert levels[0][0] == [
        leaf_checksum(storage_key(entry.kind, entry.key), 1, entry.value)
        for entry in entries
    ]


def test_nine_replicas_build_a_batch_columns_once(monkeypatch):
    """Three data centers of one 3-replica group store one slice.  What
    the memtable takes of the batch (its item columns: key list, the one
    version, the repeat test, flag bytes) is derived once for the nine
    replicas, and so are the frame lengths and starts; the replicas
    frame at equal sequences, so the heads, the piece list and the
    sequence column are built once too and handed to every AOF and
    memtable as the same objects.  Each append answers with one run,
    never a location per frame; the nine runs lie at one AOF position,
    so the run's segment and offset columns are built once as well, and
    every unit holds the slice as one extent over the batch's own piece
    list and starts — nothing per frame."""
    clusters = fleet_of(3)
    entries = varied_entries(120)
    item = Slice.pack("v1-s0", 1, IndexKind.FORWARD, entries)
    derived = []
    init = ItemColumns.__init__

    def counting_init(self, item_keys, flags):
        derived.append(len(item_keys))
        init(self, item_keys, flags)

    monkeypatch.setattr(ItemColumns, "__init__", counting_init)
    framed = []
    frame_heads = records_module.frame_heads
    monkeypatch.setattr(
        records_module, "frame_heads",
        lambda sequences, checksums: framed.append(sequences)
        or frame_heads(sequences, checksums),
    )
    appends, inserts = [], []
    append_frames = AofManager.append_frames
    put_batch = Memtable.put_batch

    def recording_append(self, frames):
        runs = append_frames(self, frames)
        appends.append((frames, runs))
        return runs

    def recording_put(self, items, sequences, segments, offsets, lengths):
        inserts.append((items, sequences, lengths, segments, offsets))
        put_batch(self, items, sequences, segments, offsets, lengths)

    monkeypatch.setattr(AofManager, "append_frames", recording_append)
    monkeypatch.setattr(Memtable, "put_batch", recording_put)
    for cluster in clusters:
        assert cluster.ingest_slice(item) == len(entries)

    assert derived == [len(entries)]
    assert framed == [range(1, len(entries) + 1)]
    assert len(appends) == len(inserts) == 9
    frames = appends[0][0]
    assert all(shared is frames for shared, _runs in appends)
    assert all(len(runs) == 1 for _frames, runs in appends)
    items = inserts[0][0]
    for columns in inserts:
        assert columns[0] is items
        assert columns[1] is frames.sequences
        assert columns[2] is frames.lengths
        assert columns[3] is inserts[0][3] and columns[4] is inserts[0][4]
    for cluster in clusters:
        for node in cluster.all_nodes:
            run, _view = node.engine.memtable._runs[1]
            assert run.sequence == frames.sequences
            assert run.length == frames.lengths
            (extent,) = node.engine.aofs.segment(0)._unit.extents
            assert extent.pieces is frames.pieces
            assert extent.starts is frames.starts


def nine_replicas_of_one_run():
    """Three data centers of one 3-replica group, after two slices of
    version 1: the nine nodes and the run they hold."""
    clusters = fleet_of(3)
    for number in range(2):
        item = Slice.pack(
            f"v1-s{number}", 1, IndexKind.FORWARD,
            varied_entries(60, tag=f"s{number}"),
        )
        for cluster in clusters:
            assert cluster.ingest_slice(item) == 60
    nodes = [node for cluster in clusters for node in cluster.all_nodes]
    return clusters, nodes, nodes[0].engine.memtable._runs[1][0]


def test_nine_replicas_that_stored_the_same_batches_hold_one_run():
    """The nine memtables hold one run object for version 1 — one ``key
    -> slot`` dict and one column per field — each seeing all 120 slots,
    and none took a copy."""
    _clusters, nodes, run = nine_replicas_of_one_run()
    for node in nodes:
        memtable = node.engine.memtable
        held, view = memtable._runs[1]
        assert held is run and held.slots is run.slots
        assert view == len(run.slots) == len(memtable) == 120
        assert not any(
            getattr(memtable.copies, verb) for verb in RunCopies.__slots__
        )
    assert run.holders == 9


def test_a_diverged_replica_copies_its_run_and_the_others_keep_theirs():
    """One replica deletes a record: it takes a private copy of the run,
    counted as a delete in its registry view, and reads the record
    deleted; the other eight still share the one run, unchanged."""
    clusters, nodes, run = nine_replicas_of_one_run()
    before = list(nodes[1].engine.memtable.items())
    (key, version, _item) = before[7]
    victim = nodes[0]
    victim.engine.delete_batch([(key, version)])
    mine, _view = victim.engine.memtable._runs[1]
    assert mine is not run and mine.slots is not run.slots
    assert victim.engine.memtable.get(key, version)[2]  # the d flag
    assert [
        (k, v, item) for k, v, item in victim.engine.memtable.items()
        if k != key
    ] == [(k, v, item) for k, v, item in before if k != key]
    for node in nodes[1:]:
        assert node.engine.memtable._runs[1][0] is run
        assert list(node.engine.memtable.items()) == before
    assert run.holders == 8
    registry = MetricsRegistry()
    clusters[0].register_metrics(registry)
    path = "qindb." + victim.name.replace("/", ".") + ".memtable_copies"
    assert registry.collect(path) == {
        f"{path}.{verb}": float(verb == "delete")
        for verb in RunCopies.__slots__
    }


# ----------------------------------------------------------------------
# (e) sharing a body across data centers is invisible
# ----------------------------------------------------------------------
def varied_entries(count, tag="key"):
    return [
        IndexEntry(
            IndexKind.FORWARD, f"{tag}-{i:04d}".encode(),
            bytes([i % 251]) * (40 + 37 * (i % 7)),
            signature=signature(bytes([i % 251]) * (40 + 37 * (i % 7))),
        )
        for i in range(count)
    ]


def test_damage_to_a_shared_body_stays_on_one_replica():
    """One body object backs nine replicas in three data centers; a bit
    flipped on one of them fails that replica's CRC alone, the read
    fails over, and every other copy reads clean."""
    clusters = fleet_of(3)
    entries = varied_entries(60)
    item = Slice.pack("v1-s0", 1, IndexKind.FORWARD, entries)
    for cluster in clusters:
        cluster.ingest_slice(item)
    entry = entries[17]
    key = storage_key(entry.kind, entry.key)
    nodes = [node for cluster in clusters for node in cluster.all_nodes]
    shared = stored_body(nodes[0], key, 1)
    assert all(stored_body(node, key, 1) is shared for node in nodes)

    group = clusters[1].groups[0]
    victim = group.read_order(key)[0]  # the replica a read tries first
    location, _r, _d, _sequence = victim.engine.memtable.get(key, 1)
    segment_id, offset, _length = location
    victim.engine.aofs.segment(segment_id)._unit.corrupt(
        offset + records_module.HEADER_SIZE + len(key) + 5, 0x40
    )
    assert bytes(shared) == stored_body(nodes[0], key, 1)  # untouched
    assert clusters[1].query(entry.kind, entry.key, 1) == entry.value
    assert victim.corrupt_gets == 1 and group.failover_gets == 1
    for node in nodes:
        if node is victim:
            with pytest.raises(CorruptionError):
                node.engine.get(key, 1)
        else:
            assert node.engine.get(key, 1) == entry.value


def test_crash_mid_frame_recovers_as_private_copies_would():
    """A crash cuts a replica whose frames share bodies with other data
    centers at its last programmed page, inside a frame; recovery builds
    the engine that private copies of the same frames recover to."""
    clusters = fleet_of(2)
    slices = [
        Slice.pack(f"v{v}-s0", v, IndexKind.FORWARD, varied_entries(45, f"v{v}"))
        for v in (1, 2)
    ]
    private = QinDB.with_capacity(
        clusters[0].config.node_capacity_bytes,
        config=QinDBConfig(segment_bytes=4 * 1024 * 1024),
    )
    for item in slices:
        for cluster in clusters:
            cluster.ingest_slice(item)
        private.put_batch([
            (storage_key(entry.kind, entry.key), item.version, entry.value)
            for entry in item.entries
        ])
    engine = clusters[1].groups[0].nodes[2].engine
    assert engine_state(engine) == engine_state(private)
    segment = engine.aofs.segment(engine.aofs.active_segment_id)
    programmed = segment.size - segment.size % segment.page_size
    assert any(  # the cut lands inside a frame
        offset < programmed < offset + length
        for (seg, offset, length), *_flags in (
            item for _k, _v, item in engine.memtable.items()
        )
        if seg == segment.segment_id
    )
    recovered = recover(crash(engine), config=engine.config)
    reference = recover(crash(private), config=private.config)
    assert engine_state(recovered) == engine_state(reference)
    assert len(recovered.memtable) < 90  # the torn frame and its tail: gone
    for node in clusters[0].all_nodes:  # the other data center is whole
        assert node.engine.get(
            storage_key(IndexKind.FORWARD, b"v2-0044"), 2
        ) == slices[1].entries[44].value


# ----------------------------------------------------------------------
# (f) a frame GC moves keeps the body the fleet shares
# ----------------------------------------------------------------------
def collected_fleet():
    """Three data centers of one 3-replica group in 256 KB segments,
    sharing one slice that overflows segment 0; every replica then
    collects segment 0 by hand.  Returns the clusters, the entries and
    the storage keys of the records the collection moved."""
    decodes = SliceDecodes({IndexKind.FORWARD: 3})
    clusters = [
        MintCluster(
            f"dc{index}", MintConfig(group_count=1, nodes_per_group=3),
            engine_factory=lambda _name: QinDB.with_capacity(
                16 * 1024 * 1024,
                config=QinDBConfig(segment_bytes=256 * 1024, gc_enabled=False),
            ),
            wire_decodes=decodes,
        )
        for index in range(3)
    ]
    entries = varied_entries(1600)
    item = Slice.pack("v1-s0", 1, IndexKind.FORWARD, entries)
    for cluster in clusters:
        cluster.ingest_slice(item)
    nodes = [node for cluster in clusters for node in cluster.all_nodes]
    moved = [
        storage_key(entry.kind, entry.key) for entry in entries
        if nodes[0].engine.memtable.get(storage_key(entry.kind, entry.key), 1)[0][0] == 0
    ]
    assert 0 < len(moved) < len(entries)
    for node in nodes:
        assert node.engine.aofs.active_segment_id != 0
        node.engine.collect_segment(0)
    return clusters, entries, moved


def test_a_moved_frame_keeps_the_body_every_replica_shares():
    """After every replica in every data center collected the victim,
    each moved record's body is still the one object the slice built."""
    clusters, _entries, moved = collected_fleet()
    nodes = [node for cluster in clusters for node in cluster.all_nodes]
    for key in moved:
        bodies = [stored_body(node, key, 1) for node in nodes]
        assert all(body is bodies[0] for body in bodies), key
        for node in nodes:
            assert node.engine.memtable.get(key, 1)[0][0] != 0
    assert all(node.engine.stats().gc_runs == 1 for node in nodes)


def test_damage_to_a_moved_body_stays_on_one_replica():
    clusters, entries, moved = collected_fleet()
    entry = next(e for e in entries if storage_key(e.kind, e.key) == moved[17])
    key = moved[17]
    nodes = [node for cluster in clusters for node in cluster.all_nodes]
    shared = stored_body(nodes[0], key, 1)
    group = clusters[1].groups[0]
    victim = group.read_order(key)[0]
    location, _r, _d, _sequence = victim.engine.memtable.get(key, 1)
    segment_id, offset, _length = location
    victim.engine.aofs.segment(segment_id)._unit.corrupt(
        offset + records_module.HEADER_SIZE + len(key) + 5, 0x40
    )
    assert bytes(shared) == stored_body(nodes[0], key, 1)  # untouched
    assert clusters[1].query(entry.kind, entry.key, 1) == entry.value
    assert victim.corrupt_gets == 1 and group.failover_gets == 1
    for node in nodes:
        if node is victim:
            with pytest.raises(CorruptionError):
                node.engine.get(key, 1)
        else:
            assert node.engine.get(key, 1) == entry.value


def retired_fleet():
    """Three data centers of one 3-replica group in 256 KB segments, GC
    by hand: versions 1 and 2 share segment 0, then every data center
    drops version 1.  Returns the nine nodes."""
    decodes = SliceDecodes({IndexKind.FORWARD: 3})
    clusters = [
        MintCluster(
            f"dc{index}", MintConfig(group_count=1, nodes_per_group=3),
            engine_factory=lambda _name: QinDB.with_capacity(
                16 * 1024 * 1024,
                config=QinDBConfig(segment_bytes=256 * 1024, gc_enabled=False),
            ),
            wire_decodes=decodes,
        )
        for index in range(3)
    ]
    for version in (1, 2):
        item = Slice.pack(
            f"v{version}-s0", version, IndexKind.FORWARD,
            varied_entries(800, tag=f"v{version}"),
        )
        for cluster in clusters:
            cluster.ingest_slice(item)
    for cluster in clusters:
        cluster.drop_version(1)
    return [node for cluster in clusters for node in cluster.all_nodes]


def test_nine_replicas_that_retire_and_collect_alike_keep_one_run():
    """The retire, the collection's drops and its relocations are made
    once for the nine: they end holding one run per version, none took
    a copy, and one walk of the victim served all nine."""
    nodes = retired_fleet()
    memtables = [node.engine.memtable for node in nodes]
    retired = memtables[0]._runs[1][0]
    assert all(memtable._runs[1][0] is retired for memtable in memtables)
    for node in nodes:
        node.engine.collect_segment(0)
    # Version 1 lay in the victim alone: its run went with its drops.
    assert sorted(memtables[0]._runs) == [2]
    run = memtables[0]._runs[2][0]
    assert all(memtable._runs[2][0] is run for memtable in memtables)
    stats = nodes[0].engine.stats()
    assert stats.gc_runs == 1 and stats.gc_bytes_reappended > 0
    for memtable in memtables:
        assert memtable.copies.retire == memtable.copies.relocate == 0
        assert memtable.copies.drop == 0
    scans = [node.engine.aofs.scans for node in nodes]
    assert sum(scan.verified for scan in scans) == 1
    assert sum(scan.shared for scan in scans) == 8


def test_nine_replicas_that_collect_alike_walk_once_and_move_one_frames(
    monkeypatch,
):
    """One ``scan_frames`` for the nine collections of segment 0, and
    the frames they moved are one ``Frames``: every replica's flash
    holds the very same piece list and starts column for them."""
    walks = []
    scan_frames = aof_module.scan_frames
    monkeypatch.setattr(
        aof_module, "scan_frames",
        lambda pieces, page_size: walks.append(page_size)
        or scan_frames(pieces, page_size),
    )
    clusters, _entries, moved = collected_fleet()
    assert len(walks) == 1
    nodes = [node for cluster in clusters for node in cluster.all_nodes]
    held = set()
    for node in nodes:
        segment_id, offset, _length = node.engine.memtable.get(moved[0], 1)[0]
        extent = next(
            extent
            for extent in reversed(node.engine.aofs.segment(segment_id)._unit.extents)
            if extent.offset <= offset
        )
        held.add((id(extent.pieces), id(extent.starts)))
    assert len(held) == 1


def test_read_side_crc_recipe_costs_no_more_than_it_did(monkeypatch):
    """``decode_value`` on a frame's head and body pieces: two ``crc32``
    calls and no ``struct.pack``."""
    frame = encode_frame(1, b"key", b"v" * 300, 7, 9)
    calls = []
    crc32 = zlib.crc32
    monkeypatch.setattr(
        zlib, "crc32", lambda *args: calls.append("crc32") or crc32(*args)
    )

    def profile(_frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", "") == "pack":
            calls.append("pack")

    sys.setprofile(profile)
    try:
        assert records_module.decode_value(
            [frame[: records_module.HEAD_SIZE], frame[records_module.HEAD_SIZE :]]
        ) == b"v" * 300
    finally:
        sys.setprofile(None)
    assert calls == ["crc32", "crc32"]


# ----------------------------------------------------------------------
# Each node's share of the shared batch is its placement, on any membership
# ----------------------------------------------------------------------
class RecordingEngine:
    """An engine that only remembers the batches it was handed."""

    device = None

    def __init__(self):
        self.batches = []

    def put_batch(self, items):
        self.batches.append(items)


@settings(max_examples=60, deadline=None)
@example(node_count=3, replicas=3, keys=[b"a", b"b"], transition=False, drain=False)
@given(
    node_count=st.integers(min_value=3, max_value=6),
    replicas=st.integers(min_value=1, max_value=3),
    keys=st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=40),
    transition=st.booleans(),
    drain=st.booleans(),
)
def test_each_node_takes_exactly_its_placement(
    node_count, replicas, keys, transition, drain
):
    """Whatever the membership — a full group (every node a replica of
    every key), a wider one, a transition open, a member draining — a
    node's sub-batch is the items ``replicas_for`` places on it, in
    input order, every column cut at the same indices.  A full group
    ranks no key to write it (placement is ranked at a key's first
    read); any other group ranks exactly the keys it wrote."""
    group = NodeGroup(
        0,
        [StorageNode(f"n{i}", RecordingEngine()) for i in range(node_count)],
        replicas,
    )
    if transition:
        group.begin_transition()
        group.add_node(StorageNode("n9", RecordingEngine()))
    if drain and len(group.nodes) > replicas:
        group.mark_draining(group.nodes[0].name)
    full = node_count <= replicas and not transition and not group.draining
    assert group.replicates_every_key == full
    batch = Bodies([(key, 1, b"v" + key) for key in keys])
    ranked = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("rendezvous_ranking", "weighted_rendezvous_ranking"):
            rank = getattr(group_module, name)
            patch.setattr(
                group_module, name,
                lambda names, key, rank=rank: ranked.append(key) or rank(names, key),
            )
        written = group.put_batch(batch)
    if full:
        assert ranked == [] and group._placement_cache == {}
    else:
        assert set(ranked) == set(group._placement_cache) == set(keys)
    replicas_for = (
        group._write_replicas_for if group.in_transition else group.replicas_for
    )
    placed = {}
    for index, item in enumerate(batch):
        for node in replicas_for(item[0]):
            placed.setdefault(node.name, []).append(index)
    assert written == sum(map(len, placed.values()))
    for node in group.nodes:
        indices = placed.get(node.name, [])
        taken = node.engine.batches
        assert len(taken) == (1 if indices else 0)
        if indices:
            assert list(taken[0]) == [batch[index] for index in indices]
            for name in Bodies.COLUMNS:
                column = getattr(batch, name)
                assert getattr(taken[0], name) == [column[i] for i in indices]


# ----------------------------------------------------------------------
# Placement once per slice for the fleet; ranking at a key's first read
# ----------------------------------------------------------------------
def counting(monkeypatch, module, name, calls):
    """Count ``module.name`` calls into ``calls`` (the key hashed)."""
    real = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *args: calls.append(args[-1]) or real(*args)
    )


def test_a_fleet_of_full_groups_cuts_a_slice_once_and_ranks_at_first_read(
    monkeypatch,
):
    """One slice into three data centers of two full 3-replica groups:
    one ``H(k)`` per record for the whole fleet (the first data center
    cuts the batch by group, the others share its cut) and no
    rendezvous ranking at all — the parent made three of each per
    record.  No key map holds a key after ingest; the first read of a
    key ranks it once, in the data center that serves it, and a second
    read ranks nothing."""
    decodes = SliceDecodes({IndexKind.FORWARD: 3})
    clusters = [
        MintCluster(
            f"dc{index}", MintConfig(group_count=2, nodes_per_group=3),
            wire_decodes=decodes,
        )
        for index in range(3)
    ]
    entries = varied_entries(120)
    hashed, ranked = [], []
    counting(monkeypatch, cluster_module, "stable_hash", hashed)
    counting(monkeypatch, group_module, "rendezvous_ranking", ranked)
    counting(monkeypatch, group_module, "weighted_rendezvous_ranking", ranked)
    item = Slice.pack("v1-s0", 1, IndexKind.FORWARD, entries)
    for cluster in clusters:
        assert cluster.ingest_slice(item) == len(entries)
    keys = [storage_key(entry.kind, entry.key) for entry in entries]
    assert sorted(hashed) == sorted(keys)
    assert ranked == []
    for cluster in clusters:
        assert cluster._group_cache == {}
        for group in cluster.groups:
            assert group._placement_cache == {}
            assert {len(node.engine.memtable) for node in group.nodes} == {
                sum(cluster.slot_for(key) % 2 == group.group_id for key in keys)
            }
    entry = entries[41]
    assert clusters[1].query(entry.kind, entry.key, 1) == entry.value
    assert ranked == [keys[41]]
    assert clusters[1].query(entry.kind, entry.key, 1) == entry.value
    assert ranked == [keys[41]]
    assert list(clusters[1]._group_cache) == [keys[41]]
    assert [
        list(group._placement_cache) for group in clusters[1].groups
        if group._placement_cache
    ] == [[keys[41]]]


def test_a_moving_slot_and_a_moved_directory_store_what_the_per_key_cut_stores(
    monkeypatch,
):
    """Four data centers share two slices: dc0 and dc3 on the initial
    directory, dc1 with a slot mid-move, dc2 with that slot cut over to
    the other group.  dc3 shares dc0's cut; dc1 and dc2 each cut their
    own.  Every node of every data center holds exactly what the
    per-key partition places on it — the key's owner, or both owners of
    a moving slot, then the group's replicas — and every value reads
    back."""
    decodes = SliceDecodes({IndexKind.FORWARD: 4})
    clusters = [
        MintCluster(
            f"dc{index}",
            MintConfig(group_count=2, nodes_per_group=3,
                       node_capacity_bytes=16 * 1024 * 1024),
            wire_decodes=decodes,
        )
        for index in range(4)
    ]
    slices = [
        (version, varied_entries(120, f"v{version}")) for version in (1, 2)
    ]
    probe = storage_key(IndexKind.FORWARD, slices[0][1][0].key)
    slot = clusters[0].slot_for(probe)
    for cluster in clusters[1:3]:
        owner = cluster.group_for(probe)
        cluster.begin_slot_move(
            slot, next(group for group in cluster.groups if group is not owner)
        )
    clusters[2].complete_slot_move(slot)
    hashed = []
    counting(monkeypatch, cluster_module, "stable_hash", hashed)
    for version, entries in slices:
        item = Slice.pack(f"v{version}-s0", version, IndexKind.FORWARD, entries)
        for cluster in clusters:
            assert cluster.ingest_slice(item) == len(entries)
    assert len(hashed) == 3 * 2 * 120  # dc0, dc1 and dc2, per slice
    monkeypatch.undo()
    for cluster in clusters:
        expected = Expected()
        for version, entries in slices:
            for entry in entries:
                key = storage_key(entry.kind, entry.key)
                move = cluster._moving_slots.get(cluster.slot_for(key))
                for group in move or (cluster.group_for(key),):
                    expected.wrote(
                        group.replicas_for(key), (key, version, entry.value)
                    )
        expected.check(cluster.all_nodes)
        for node in cluster.all_nodes:
            assert sorted(
                (key, version) for key, version, _item in node.engine.memtable.items()
            ) == sorted(item[:2] for item in expected.items.get(node.name, []))
        for version, entries in slices:
            for entry in entries:
                assert cluster.query(entry.kind, entry.key, version) == entry.value
    moved = [
        key for key in (
            storage_key(entry.kind, entry.key) for entry in slices[0][1]
        )
        if clusters[0].slot_for(key) == slot
    ]
    assert len(moved) > 1  # the slot holds more than the probe key
    for key in moved:  # dc1 wrote both owners; dc2 only the new one
        assert sum(
            node.engine.memtable.get(key, 1) is not None
            for node in clusters[1].all_nodes
        ) == 6
        assert (
            clusters[2].group_for(key).group_id
            != clusters[0].group_for(key).group_id
        )


# ----------------------------------------------------------------------
# (g) heads: one object per frame where replicas frame at equal sequences
# ----------------------------------------------------------------------
def test_replicas_framing_at_the_same_sequences_share_one_head_per_frame():
    """Three data centers of two 3-replica groups take two versions: the
    nine replicas of a group's share frame it at the same sequences, so
    each frame's head is one object on all of them, as its body is —
    and the heads are the definition's bytes."""
    decodes = SliceDecodes({IndexKind.FORWARD: 3})
    clusters = [
        MintCluster(
            f"dc{index}", MintConfig(group_count=2, nodes_per_group=3),
            wire_decodes=decodes,
        )
        for index in range(3)
    ]
    for version in (1, 2):
        item = Slice.pack(
            f"v{version}-s0", version, IndexKind.FORWARD,
            varied_entries(80, f"v{version}"),
        )
        for cluster in clusters:
            cluster.ingest_slice(item)
    for version in (1, 2):
        for entry in varied_entries(80, f"v{version}"):
            key = storage_key(entry.kind, entry.key)
            nodes = [
                node for cluster in clusters
                for node in cluster.group_for(key).replicas_for(key)
            ]
            heads = [stored_head(node, key, version) for node in nodes]
            assert len(heads) == 9
            assert all(head is heads[0] for head in heads), key
            _location, _r, _d, sequence = nodes[0].engine.memtable.get(key, version)
            framed = encode_frame(
                int(RecordType.PUT_VALUE), key, entry.value, version, sequence
            )
            assert heads[0] == framed[: records_module.HEAD_SIZE]


def test_damage_to_a_shared_head_stays_on_one_replica():
    """A bit flipped in the sequence field of a head nine replicas share
    fails that replica's CRC alone (``corrupt`` copies the piece first):
    the read fails over, only that node ticks ``corrupt_gets``, and every
    other copy reads clean."""
    clusters = fleet_of(3)
    entries = varied_entries(60)
    item = Slice.pack("v1-s0", 1, IndexKind.FORWARD, entries)
    for cluster in clusters:
        cluster.ingest_slice(item)
    entry = entries[23]
    key = storage_key(entry.kind, entry.key)
    nodes = [node for cluster in clusters for node in cluster.all_nodes]
    shared = stored_head(nodes[0], key, 1)
    assert all(stored_head(node, key, 1) is shared for node in nodes)

    group = clusters[2].groups[0]
    victim = group.read_order(key)[0]
    location, _r, _d, _sequence = victim.engine.memtable.get(key, 1)
    segment_id, offset, _length = location
    victim.engine.aofs.segment(segment_id)._unit.corrupt(offset + 3, 0x10)
    assert stored_head(victim, key, 1) is not shared
    assert all(  # every other replica still holds the clean object
        stored_head(node, key, 1) is shared for node in nodes if node is not victim
    )
    assert clusters[2].query(entry.kind, entry.key, 1) == entry.value
    assert victim.corrupt_gets == 1 and group.failover_gets == 1
    assert [node.corrupt_gets for node in nodes].count(0) == len(nodes) - 1
    for node in nodes:
        if node is victim:
            with pytest.raises(CorruptionError):
                node.engine.get(key, 1)
        else:
            assert node.engine.get(key, 1) == entry.value


def test_a_replica_with_diverged_sequences_frames_its_own_heads():
    """One replica of a data center took an extra record first, so it
    frames the slice one sequence later: it builds its own heads, the
    replicas that agree still share theirs, and every replica reads back
    the same bytes and holds the definition's image."""
    clusters = fleet_of(2)
    odd = clusters[1].groups[0].nodes[1]
    odd.put_batch([(b"S:early", 1, b"first")])
    entries = varied_entries(50)
    item = Slice.pack("v1-s0", 1, IndexKind.FORWARD, entries)
    for cluster in clusters:
        cluster.ingest_slice(item)
    nodes = [node for cluster in clusters for node in cluster.all_nodes]
    stored = [
        (storage_key(entry.kind, entry.key), 1, entry.value) for entry in entries
    ]
    for key, _version, value in stored:
        own = stored_head(odd, key, 1)
        others = [stored_head(node, key, 1) for node in nodes if node is not odd]
        assert len(others) == 5 and all(head is others[0] for head in others)
        assert own != others[0]  # one sequence later
        for node in nodes:
            assert node.engine.get(key, 1) == value
    for node in nodes:
        if node is odd:
            assert image(node.engine) == frames_of([(b"S:early", 1, b"first")] + stored)
        else:
            assert image(node.engine) == frames_of(stored)


def test_wider_groups_than_replica_count_ingest_read_and_audit():
    """Five nodes per group, three replicas: each node's share of a
    group's batch differs (and, node names differing, from one data
    center to the next), so sub-batches and heads are shared only where
    index lists and sequences agree.  Each replica's image is still the
    definition's, values (deduplicated ones by traceback) read back, and
    an audit is clean."""
    decodes = SliceDecodes({IndexKind.FORWARD: 3})
    clusters = [
        MintCluster(
            f"dc{index}",
            MintConfig(group_count=2, nodes_per_group=5, replica_count=3,
                       node_capacity_bytes=16 * 1024 * 1024),
            wire_decodes=decodes,
        )
        for index in range(3)
    ]
    first = varied_entries(90)
    second = [
        IndexEntry(entry.kind, entry.key, None) if i % 3 == 0 else
        IndexEntry(entry.kind, entry.key, entry.value + b"!",
                   signature=signature(entry.value + b"!"))
        for i, entry in enumerate(first)
    ]
    for version, entries in ((1, first), (2, second)):
        item = Slice.pack(f"v{version}-s0", version, IndexKind.FORWARD, entries)
        for cluster in clusters:
            assert cluster.ingest_slice(item) == len(entries)
    for cluster in clusters:
        expected = Expected()
        for version, entries in ((1, first), (2, second)):
            for entry in entries:
                key = storage_key(entry.kind, entry.key)
                expected.wrote(
                    cluster.group_for(key).replicas_for(key),
                    (key, version, entry.value),
                )
        expected.check(cluster.all_nodes)
        shares = {len(items) for items in expected.items.values()}
        assert len(shares) > 1  # the nodes' sub-batches really differ
    for cluster in clusters:
        for base, entry in zip(first, second):
            value = base.value if entry.value is None else entry.value
            assert cluster.query(entry.kind, entry.key, 2) == value
            assert cluster.query(base.kind, base.key, 1) == base.value
        assert ReplicaRepairer().audit_cluster(cluster).clean
