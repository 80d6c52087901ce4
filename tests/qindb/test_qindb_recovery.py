"""Crash / recovery tests: the full AOF scan and checkpointing."""

import copy

import pytest

from repro.errors import CorruptionError, KeyNotFoundError
from repro.qindb.checkpoint import Checkpoint, crash, recover
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.records import (
    HEAD_SIZE, HEADER_SIZE, Frames, RecordType, encode_frame,
)
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry


def small_engine():
    return QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
    )


def test_recovery_rebuilds_memtable_from_aofs():
    engine = small_engine()
    for index in range(30):
        engine.put(f"k{index:02d}".encode(), 1, bytes([index]) * 500)
    engine.flush()
    recovered = recover(crash(engine))
    assert len(recovered.memtable) == 30
    for index in range(30):
        assert recovered.get(f"k{index:02d}".encode(), 1) == bytes([index]) * 500


def test_recovery_preserves_dedup_flags_and_traceback():
    engine = small_engine()
    engine.put(b"url", 1, b"base")
    engine.put(b"url", 2, None)
    engine.flush()
    recovered = recover(crash(engine))
    assert recovered.get(b"url", 2) == b"base"
    _location, deduplicated, _deleted, _sequence = recovered.memtable.get(
        b"url", 2
    )
    assert deduplicated


def test_recovery_honors_tombstones():
    engine = small_engine()
    engine.put(b"doomed", 1, b"x")
    engine.put(b"kept", 1, b"y")
    engine.delete(b"doomed", 1)
    engine.flush()
    recovered = recover(crash(engine))
    with pytest.raises(KeyNotFoundError):
        recovered.get(b"doomed", 1)
    assert recovered.get(b"kept", 1) == b"y"


def test_recovery_after_gc_moved_records():
    engine = small_engine()
    engine.put(b"url", 1, b"base" * 300)
    engine.put(b"url", 2, None)
    for index in range(40):
        engine.put(f"pad-{index:02d}".encode(), 1, b"p" * 4000)
    for index in range(40):
        engine.delete(f"pad-{index:02d}".encode(), 1)
    engine.delete(b"url", 1)
    for segment_id in list(engine.gc_table.snapshot()):
        if segment_id != engine.aofs.active_segment_id:
            if engine.gc_table.snapshot().get(segment_id, 1.0) <= 0.25:
                engine.collect_segment(segment_id)
    engine.flush()
    recovered = recover(crash(engine))
    # The delete of url/1 still holds, and the dedup chain still works.
    assert recovered.get(b"url", 2) == b"base" * 300
    with pytest.raises(KeyNotFoundError):
        recovered.get(b"url", 1)


def test_unflushed_tail_is_lost_on_crash():
    """Bytes still in the page-fill buffer never reach flash."""
    engine = small_engine()
    engine.put(b"durable", 1, b"d" * 8000)  # > 1 page: mostly programmed
    engine.flush()
    engine.put(b"tail", 1, b"t" * 10)  # tiny: sits in the fill buffer
    recovered = recover(crash(engine))
    assert recovered.get(b"durable", 1) == b"d" * 8000
    with pytest.raises(KeyNotFoundError):
        recovered.get(b"tail", 1)


def test_recovery_charges_a_full_scan_read():
    engine = small_engine()
    for index in range(50):
        engine.put(f"k{index:02d}".encode(), 1, b"v" * 2000)
    engine.flush()
    reads_before = engine.device.counters.total_pages_read
    recovered = recover(crash(engine))
    reads_after = recovered.device.counters.total_pages_read
    # At least every programmed page was read back (the paper's stated
    # recovery cost).
    programmed = recovered.device.counters.total_pages_written
    assert reads_after - reads_before >= programmed


def test_recovery_time_grows_with_data():
    def recovery_seconds(item_count):
        engine = small_engine()
        for index in range(item_count):
            engine.put(f"k{index:04d}".encode(), 1, b"v" * 2000)
        engine.flush()
        aofs = crash(engine)
        before = aofs.device.now
        recover(aofs)
        return aofs.device.now - before

    assert recovery_seconds(200) > recovery_seconds(20)


def test_checkpoint_accelerates_recovery():
    # Enough data to span several sealed segments: the checkpoint lets
    # recovery skip reading them entirely.
    def load(engine):
        for index in range(400):
            engine.put(f"k{index:03d}".encode(), 1, b"v" * 2000)

    engine = small_engine()
    load(engine)
    checkpoint = Checkpoint.write(engine)
    engine.put(b"after-checkpoint", 2, b"tail-data")
    engine.flush()
    aofs = crash(engine)

    before = aofs.device.now
    fast = recover(aofs, checkpoint=checkpoint)
    fast_cost = aofs.device.now - before

    assert fast.get(b"k050", 1) == b"v" * 2000
    assert fast.get(b"after-checkpoint", 2) == b"tail-data"
    assert len(fast.memtable) == 401

    # A full scan of the same data costs strictly more read time.
    engine2 = small_engine()
    load(engine2)
    engine2.put(b"after-checkpoint", 2, b"tail-data")
    engine2.flush()
    aofs2 = crash(engine2)
    before2 = aofs2.device.now
    recover(aofs2)
    full_cost = aofs2.device.now - before2
    assert fast_cost < full_cost


def test_checkpoint_preserves_deleted_flags():
    engine = small_engine()
    engine.put(b"a", 1, b"av")
    engine.put(b"b", 1, b"bv")
    engine.delete(b"a", 1)
    checkpoint = Checkpoint.write(engine)
    engine.flush()
    aofs = crash(engine)
    recovered = recover(aofs, checkpoint=checkpoint)
    with pytest.raises(KeyNotFoundError):
        recovered.get(b"a", 1)
    assert recovered.get(b"b", 1) == b"bv"


def test_stale_checkpoint_falls_back_to_full_scan():
    engine = small_engine()
    engine.put(b"k", 1, b"v" * 100)
    checkpoint = Checkpoint.write(engine)
    engine.put(b"k2", 1, b"w" * 100)
    engine.flush()
    aofs = crash(engine)
    recovered = recover(aofs, checkpoint=checkpoint, checkpoint_valid=False)
    assert recovered.get(b"k", 1) == b"v" * 100
    assert recovered.get(b"k2", 1) == b"w" * 100


def test_recovered_engine_is_fully_operational():
    engine = small_engine()
    engine.put(b"k", 1, b"v1")
    engine.flush()
    recovered = recover(crash(engine))
    recovered.put(b"k", 2, None)
    assert recovered.get(b"k", 2) == b"v1"
    recovered.delete(b"k", 1)
    assert recovered.get(b"k", 2) == b"v1"  # referent rule still applies


def test_recovered_engine_can_collect_garbage():
    """A recovered engine has no trace track bound; its GC must still
    run (``recover`` used to leave ``engine.trace`` unset, so the first
    sweep after a restart died with AttributeError)."""
    engine = small_engine()
    for index in range(200):
        engine.put(f"k{index:03d}".encode(), 1, b"v" * 4000)
    engine.flush()
    recovered = recover(crash(engine), config=engine.config)
    recovered.delete_batch([(f"k{index:03d}".encode(), 1) for index in range(190)])
    assert recovered.gc_runs > 0
    assert recovered.get(b"k199", 1) == b"v" * 4000


def test_auto_checkpointing_kicks_in_and_speeds_node_recovery():
    """The paper's periodic checkpointing, wired through the engine."""
    engine = QinDB.with_capacity(
        16 * 1024 * 1024,
        config=QinDBConfig(
            segment_bytes=256 * 1024,
            checkpoint_interval_bytes=200 * 1024,
        ),
    )
    for index in range(150):
        engine.put(f"k{index:03d}".encode(), 1, b"v" * 2000)
    assert engine.latest_checkpoint is not None
    assert engine.checkpoint_valid
    checkpoint = engine.latest_checkpoint
    engine.flush()
    aofs = crash(engine)
    recovered = recover(aofs, checkpoint=checkpoint)
    assert len(recovered.memtable) == 150
    assert recovered.get(b"k100", 1) == b"v" * 2000


def test_gc_invalidates_auto_checkpoint():
    engine = QinDB.with_capacity(
        16 * 1024 * 1024,
        config=QinDBConfig(
            segment_bytes=256 * 1024,
            checkpoint_interval_bytes=200 * 1024,
            gc_defer_min_free_blocks=0,
        ),
    )
    for index in range(150):
        engine.put(f"k{index:03d}".encode(), 1, b"v" * 2000)
    assert engine.checkpoint_valid
    for index in range(150):
        engine.delete(f"k{index:03d}".encode(), 1)
    if engine.gc_runs:
        assert not engine.checkpoint_valid  # GC moved records


def test_auto_checkpoint_discards_superseded_snapshots():
    engine = QinDB.with_capacity(
        32 * 1024 * 1024,
        config=QinDBConfig(
            segment_bytes=512 * 1024,
            checkpoint_interval_bytes=100 * 1024,
        ),
    )
    seen = set()
    for index in range(300):
        engine.put(f"k{index:04d}".encode(), 1, b"v" * 2000)
        if engine.latest_checkpoint is not None:
            seen.add(id(engine.latest_checkpoint))
    assert len(seen) > 1  # superseded checkpoints were replaced
    # Superseded checkpoint units were erased: only the latest holds
    # blocks, so device usage is bounded.
    assert engine.latest_checkpoint.unit.occupied_bytes > 0


def test_checkpoint_then_gc_sweep_then_crash_recovers_via_full_scan():
    """A GC sweep between checkpoint and crash invalidates the snapshot.

    GC re-appends live records into new segments, so the checkpoint's
    recorded locations are stale; recovery must notice the invalidation,
    fall back to the full AOF scan, and still reconstruct the exact
    state — dedup chains, tombstones, and the GC-moved records included.
    """
    engine = small_engine()
    engine.put(b"url", 1, b"base" * 300)
    engine.put(b"url", 2, None)  # dedup chain across the sweep
    for index in range(120):
        engine.put(f"pad-{index:02d}".encode(), 1, b"p" * 4000)
    checkpoint = Checkpoint.write(engine)
    assert not engine._gc_since_checkpoint

    # Kill the padding: the deletes push the sealed segments under the
    # GC threshold and the engine's own sweep kicks in, moving the live
    # url chain into a fresh segment — every location the checkpoint
    # recorded is now suspect.
    gc_runs_before = engine.gc_runs
    for index in range(120):
        engine.delete(f"pad-{index:02d}".encode(), 1)
    assert engine.gc_runs > gc_runs_before
    assert engine._gc_since_checkpoint  # the sweep invalidated it

    engine.put(b"late", 1, b"after-the-sweep")
    engine.flush()
    checkpoint_valid = not engine._gc_since_checkpoint
    recovered = recover(
        crash(engine),
        checkpoint=checkpoint,
        checkpoint_valid=checkpoint_valid,
    )
    assert recovered.get(b"url", 2) == b"base" * 300
    assert recovered.get(b"late", 1) == b"after-the-sweep"
    for index in range(120):
        with pytest.raises(KeyNotFoundError):
            recovered.get(f"pad-{index:02d}".encode(), 1)
    # The recovered engine keeps working past the interleaving.
    recovered.put(b"url", 3, None)
    assert recovered.get(b"url", 3) == b"base" * 300


def tiny_engine() -> QinDB:
    """512 B pages and one 4 KB block per segment; no automatic GC."""
    geometry = SSDGeometry(
        block_count=512, pages_per_block=8, page_size=512, op_ratio=0.07
    )
    return QinDB(
        SimulatedSSD(geometry),
        config=QinDBConfig(segment_bytes=4 * 1024, gc_enabled=False),
    )


def test_gc_duplicate_reads_as_the_engine_did_and_counts_dead():
    """A crash between a collection's moves and its victim's erase leaves
    every moved frame on flash twice at one sequence.  The full scan
    reads exactly what the engine read, keeps the moved copies and
    finishes the collection: the victim is erased, and every segment is
    booked as the engine booked it."""
    engine = tiny_engine()
    engine.put_batch(
        [(b"live", 1, b"L" * 600), (b"base", 1, b"B" * 600),
         (b"gone", 1, b"G" * 600), (b"base", 2, None)]
        + [(b"f%d" % index, 1, b"x" * 600) for index in range(4)]
    )  # seals segment 0
    engine.delete_batch([(b"base", 1), (b"gone", 1)])
    assert engine.aofs.active_segment_id == 1
    engine.aofs.drop_segment = lambda segment_id: None  # the crash
    engine.collect_segment(0)
    del engine.aofs.drop_segment
    engine.flush()
    frames = [
        (frame[3], frame[4], frame[5])
        for segment in engine.aofs.segments
        for frame in segment.read_frames()[0]
        if frame[3] == b"live"
    ]
    assert len(frames) == 2 and frames[0] == frames[1]
    space = [
        (key, version)
        for key in (b"live", b"base", b"gone", b"f0", b"f3")
        for version in (1, 2)
    ]
    reads = engine.get_batch(space)
    live = [engine.exists(*item) for item in space]
    items = [
        (key, version, item[0][0])
        for key, version, item in engine.memtable.items()
    ]
    recovered = recover(crash(engine), config=engine.config)
    assert recovered.get_batch(space) == reads
    assert [recovered.exists(*item) for item in space] == live
    assert [segment.segment_id for segment in recovered.aofs.segments] == [1]
    assert [
        (key, version, item[0][0])
        for key, version, item in recovered.memtable.items()
    ] == [(key, version, 1) for key, version, _segment in items]
    assert recovered.gc_table.snapshot() == {1: engine.gc_table.snapshot()[1]}


def test_a_gc_duplicate_does_not_outlive_the_tombstone_of_its_item():
    """The copy a crashed collection left behind must not outlast its
    item.  Kept until GC happened to collect its segment, it stayed on
    flash after the item was deleted and GC had dropped the item and
    then its tombstone; the next full scan installed it live."""
    engine = tiny_engine()

    def fill(tag):  # seals the active segment
        engine.put_batch([(tag + b"%d" % i, 1, b"x" * 600) for i in range(7)])

    engine.put_batch([(b"k", 1, b"K" * 600)])
    fill(b"f")  # segment 0: k and fillers
    engine.delete_batch([(b"f%d" % index, 1) for index in range(7)])
    engine.aofs.drop_segment = lambda segment_id: None  # the crash
    engine.collect_segment(0)  # k moves into segment 1
    del engine.aofs.drop_segment
    engine.flush()
    engine = recover(crash(engine), config=engine.config)
    fill(b"g")

    def holder():
        return engine.memtable.get(b"k", 1)[0][0]

    engine.collect_segment(holder())  # k moves on, to the active segment
    engine.delete_batch([(b"k", 1)])
    fill(b"h")
    engine.collect_segment(holder())  # drops k, then its tombstone
    assert not engine.holds(b"k", 1)
    engine.flush()
    recovered = recover(crash(engine), config=engine.config)
    assert not recovered.holds(b"k", 1)


def test_two_puts_of_one_item_at_different_sequences_are_corruption():
    """A write-once engine never frames one ``(key, version)`` twice
    under different sequences, so recovery refuses to pick a winner."""
    engine = small_engine()
    engine.put(b"k", 1, b"first")
    frame = encode_frame(int(RecordType.PUT_VALUE), b"k", b"second", 1, 99)
    engine.aofs.append_frames(
        Frames.of([frame[:HEAD_SIZE]], [frame[HEAD_SIZE:]])
    )
    engine.flush()
    with pytest.raises(CorruptionError, match=r"b'k'/1: sequences 1 and 99"):
        recover(crash(engine), config=engine.config)


def test_a_restore_lasts_once_gc_drops_its_tombstone():
    """``restore`` makes a deleted item live from its own frame, in
    memory: a crash while its tombstone is on flash deletes it again.
    Once GC collects the tombstone (not carried: its item is live) the
    restore survives a full scan."""
    engine = tiny_engine()
    fillers = [(b"f%d" % index, 1, b"x" * 600) for index in range(6)]
    engine.put_batch([(b"k", 1, b"K" * 600)] + fillers)  # seals segment 0
    engine.delete_batch([(b"k", 1)])
    tombstone_segment = engine.aofs.active_segment_id
    assert not engine.restore(b"f0", 1) and not engine.restore(b"none", 1)
    dead = engine.gc_table.entry(0).dead_bytes
    assert engine.restore(b"k", 1)
    assert engine.gc_table.entry(0).dead_bytes == dead - (HEADER_SIZE + 601)
    assert engine.get(b"k", 1) == b"K" * 600
    engine.flush()
    crashed = recover(crash(copy.deepcopy(engine)), config=engine.config)
    assert not crashed.exists(b"k", 1) and crashed.holds(b"k", 1)

    engine.put_batch([(b"g%d" % index, 1, b"y" * 600) for index in range(7)])
    assert engine.aofs.active_segment_id != tombstone_segment
    engine.collect_segment(tombstone_segment)
    engine.flush()
    recovered = recover(crash(engine), config=engine.config)
    assert recovered.get(b"k", 1) == b"K" * 600
