"""Tests for the lazy GC: triggers, deferral, referent re-appends."""

import pytest

from repro.errors import CorruptionError, KeyNotFoundError, StorageError
from repro.qindb.engine import QinDB, QinDBConfig


def small_engine(threshold=0.25, gc_enabled=True, defer_blocks=0):
    """Engine with tiny segments so a handful of ops spans several."""
    return QinDB.with_capacity(
        16 * 1024 * 1024,
        config=QinDBConfig(
            segment_bytes=256 * 1024,
            gc_occupancy_threshold=threshold,
            gc_enabled=gc_enabled,
            gc_defer_min_free_blocks=defer_blocks,
        ),
    )


def fill_versions(engine, keys=40, versions=3, value_bytes=4000):
    for version in range(1, versions + 1):
        for index in range(keys):
            engine.put(
                f"key-{index:03d}".encode(),
                version,
                bytes([version]) * value_bytes,
            )


def test_gc_triggers_when_occupancy_drops():
    engine = small_engine()
    fill_versions(engine)
    segments_before = engine.aofs.segment_count
    # Delete versions 1 and 2 entirely: early segments go nearly all-dead.
    for version in (1, 2):
        for index in range(40):
            engine.delete(f"key-{index:03d}".encode(), version)
    assert engine.gc_runs > 0
    assert engine.aofs.segment_count < segments_before + 2
    # Version 3 data fully intact.
    for index in range(40):
        assert engine.get(f"key-{index:03d}".encode(), 3) == b"\x03" * 4000


def test_gc_disabled_never_collects():
    engine = small_engine(gc_enabled=False)
    fill_versions(engine)
    for version in (1, 2):
        for index in range(40):
            engine.delete(f"key-{index:03d}".encode(), version)
    assert engine.gc_runs == 0


def test_gc_deferred_while_reads_in_flight_and_space_free():
    engine = small_engine(defer_blocks=2)
    fill_versions(engine)
    engine.reads_in_flight = 5  # emulate concurrent readers
    for version in (1, 2):
        for index in range(40):
            engine.delete(f"key-{index:03d}".encode(), version)
    assert engine.gc_runs == 0  # lazy: deferred
    engine.reads_in_flight = 0
    # The next mutation re-evaluates and collects.
    engine.put(b"poke", 99, b"x")
    assert engine.gc_runs > 0


def test_gc_reappends_referenced_dead_values():
    """Dead records that newer deduplicated versions resolve to must
    survive collection (paper Figure 2, step 4)."""
    engine = small_engine()
    engine.put(b"url", 1, b"base-value" * 100)
    engine.put(b"url", 2, None)  # dedups down to version 1
    # Fill past segment 0 (256 KB segments) so it is collectible, then
    # kill all the filler.
    for index in range(120):
        engine.put(f"fill-{index:03d}".encode(), 1, b"f" * 4000)
    for index in range(120):
        engine.delete(f"fill-{index:03d}".encode(), 1)
    engine.delete(b"url", 1)  # dead, but referenced by version 2
    # Force collection of every collectible segment.
    for segment_id in list(engine.gc_table.snapshot()):
        if segment_id == engine.aofs.active_segment_id:
            continue
        if engine.gc_table.snapshot().get(segment_id, 1.0) <= 0.25:
            engine.collect_segment(segment_id)
    assert engine.gc_runs > 0
    # The referenced dead value still resolves.
    assert engine.get(b"url", 2) == b"base-value" * 100
    # The unreferenced dead fills are really gone from the memtable.
    assert engine.memtable.get(b"fill-000", 1) is None


def test_gc_drops_unreferenced_deleted_items():
    engine = small_engine()
    for index in range(150):
        engine.put(f"k{index:03d}".encode(), 1, b"v" * 4000)
    items_before = len(engine.memtable)
    for index in range(150):
        engine.delete(f"k{index:03d}".encode(), 1)
    # After enough GC the deleted items leave the skip list entirely.
    for segment_id in list(engine.gc_table.snapshot()):
        if segment_id != engine.aofs.active_segment_id:
            if engine.gc_table.snapshot().get(segment_id, 1.0) <= 0.25:
                engine.collect_segment(segment_id)
    assert len(engine.memtable) < items_before


def test_gc_updates_offsets_for_moved_records():
    engine = small_engine()
    engine.put(b"survivor", 1, b"s" * 3000)
    survivor_before = engine.memtable.get(b"survivor", 1)[0]
    for index in range(40):
        engine.put(f"bulk-{index:02d}".encode(), 1, b"b" * 4000)
    for index in range(40):
        engine.delete(f"bulk-{index:02d}".encode(), 1)
    # Collect the survivor's original segment if it became a victim.
    victim = survivor_before[0]
    if (
        victim != engine.aofs.active_segment_id
        and engine.gc_table.snapshot().get(victim, 1.0) <= 0.25
    ):
        engine.collect_segment(victim)
        moved = engine.memtable.get(b"survivor", 1)[0]
        assert moved != survivor_before
    assert engine.get(b"survivor", 1) == b"s" * 3000


def test_collect_active_segment_rejected():
    engine = small_engine()
    engine.put(b"k", 1, b"v")
    with pytest.raises(StorageError):
        engine.collect_segment(engine.aofs.active_segment_id)


def test_gc_erases_segments_block_aligned_no_device_gc():
    """QinDB's whole-segment erase keeps hardware WA at exactly 1.0."""
    engine = small_engine()
    fill_versions(engine, keys=30, versions=4)
    for version in (1, 2, 3):
        for index in range(30):
            engine.delete(f"key-{index:03d}".encode(), version)
    counters = engine.device.counters
    assert counters.gc_pages_written == 0  # never a device-GC migration
    assert counters.hardware_write_amplification == 1.0
    assert counters.blocks_erased > 0


def test_software_write_amplification_stays_low_with_gc():
    engine = small_engine()
    fill_versions(engine, keys=40, versions=5)
    for version in range(1, 4):
        for index in range(40):
            engine.delete(f"key-{index:03d}".encode(), version)
    stats = engine.stats()
    # The paper reports <= 2.5x for QinDB; allow slack for the tiny scale.
    assert stats.software_write_amplification < 3.0


def test_tombstones_carried_forward_by_gc():
    engine = small_engine()
    engine.put(b"url", 1, b"value" * 200)
    engine.put(b"url", 2, None)
    engine.delete(b"url", 1)
    _location, _r, deleted, _sequence = engine.memtable.get(b"url", 1)
    assert deleted
    for index in range(40):
        engine.put(f"pad-{index:02d}".encode(), 1, b"p" * 4000)
    for index in range(40):
        engine.delete(f"pad-{index:02d}".encode(), 1)
    for segment_id in list(engine.gc_table.snapshot()):
        if segment_id != engine.aofs.active_segment_id:
            if engine.gc_table.snapshot().get(segment_id, 1.0) <= 0.25:
                engine.collect_segment(segment_id)
    # The url/1 item survived GC (still flagged deleted, still referenced).
    survived = engine.memtable.get(b"url", 1)
    assert survived is not None and survived[2]  # the d flag


def corrupt_victim_engine():
    """An engine whose only GC victim (segment 0, 80% dead) has one
    flipped value byte in its last, still-live frame.

    Returns ``(engine, items, victim, corrupt_key)``; collection was
    deferred while the victim was made, so the caller triggers it.
    """
    engine = small_engine()
    items = [
        (f"k{index:04d}".encode(), 1, bytes([index % 251]) * 900)
        for index in range(600)
    ]
    engine.put_batch(items)
    victim = 0
    in_victim = sorted(
        (location, key)
        for key, _version, (location, _r, _d, _s) in engine.memtable.items()
        if location[0] == victim  # its segment_id
    )
    engine.reads_in_flight = 1
    engine.delete_batch(
        [
            (key, 1)
            for index, (_at, key) in enumerate(reversed(in_victim))
            if index % 5
        ]
    )
    engine.reads_in_flight = 0
    assert engine.gc_runs == 0
    assert engine.gc_table.victims() == [victim]
    last, corrupt_key = in_victim[-1]
    segment = engine.aofs.segment(victim)
    _segment_id, offset, length = last
    segment._unit.corrupt(offset + length - 1, 0xFF)
    return engine, items, victim, corrupt_key


def test_corrupt_victim_leaves_the_engine_untouched():
    """Verification precedes mutation: a CRC failure on the victim's
    *last* frame must raise before anything was moved or dropped.

    The per-record collector raised the same error half-way: 56 items
    re-pointed, 224 dropped, 52,248 B appended, the victim still there
    at occupancy 0.203 — nominated again on every later batch.
    """
    engine, items, victim, corrupt_key = corrupt_victim_engine()
    segment = engine.aofs.segment(victim)

    def state():
        return (
            {
                (key, version): (location, deleted)
                for key, version, (location, _r, deleted, _sequence)
                in engine.memtable.items()
            },
            engine.gc_table.snapshot(),
            engine.aofs.bytes_appended,
            engine.gc_bytes_reappended,
            engine.aofs.segment_count,
            engine.gc_runs,
        )

    before = state()
    with pytest.raises(CorruptionError):
        engine.collect_segment(victim)
    assert state() == before
    assert engine.aofs.segment(victim) is segment  # not erased
    # Every other live key still reads back; the damaged one fails typed.
    for key, version, value in items:
        if engine.exists(key, version) and key != corrupt_key:
            assert engine.get(key, version) == value
    with pytest.raises(CorruptionError):
        engine.get(corrupt_key, 1)


def test_corrupt_victim_never_fails_the_write_that_polled_gc():
    """Maintenance must not fail a write that was already applied: the
    automatic collection quarantines a corrupt victim instead of raising
    out of every later ``put_batch`` (5 of 5 raised, 5 of 5 stored,
    ``gc_runs`` 0, the victim re-nominated forever)."""
    from repro.obs.tracer import Tracer

    engine, _items, victim, _corrupt_key = corrupt_victim_engine()
    tracer = Tracer(engine.device)
    engine.bind_trace(tracer.track("engine:test", clock=engine.device))
    raised = 0
    for batch in range(5):
        try:
            engine.put_batch([(b"later-%d" % batch, 2, b"v" * 900)])
        except CorruptionError:
            raised += 1
    assert raised == 0
    assert all(engine.exists(b"later-%d" % batch, 2) for batch in range(5))
    assert engine.gc_corrupt_victims == 1  # met once, not once per batch
    assert engine.stats().gc_corrupt_victims == 1
    assert engine.gc_runs == 0
    # Still below the line in the table, but not as the engine nominates.
    assert victim in engine.gc_table.victims()
    assert victim not in engine.gc_table.victims(exclude=engine.gc_quarantined)
    marks = [i for i in tracer.instants if i.name == "gc_corrupt_victim"]
    assert [(i.track, i.attrs["segment"]) for i in marks] == [
        ("engine:test", victim)
    ]
    # An explicit collection of the victim still raises the typed error.
    with pytest.raises(CorruptionError):
        engine.collect_segment(victim)
    # Other segments still collect: kill everything stored in segment 1.
    doomed = [
        (key, version)
        for key, version, ((segment_id, _o, _l), _r, deleted, _s)
        in engine.memtable.items()
        if segment_id == 1 and not deleted
    ]
    assert doomed
    engine.delete_batch(doomed)
    assert engine.gc_runs >= 1
    assert 1 not in engine.gc_table.snapshot()
    assert engine.gc_corrupt_victims == 1
