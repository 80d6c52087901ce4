"""Batch-split invariance: N batches of one (sequential ``put`` calls)
must store exactly what one ``put_batch`` of N stores.

How a run of items is split into batches is a *performance* choice:
sequence numbering, memtable contents, GC-table accounting, stats (minus
the batch counters and simulated time), and recovery contents must all
be identical; only the device-command count and the clock may differ.
"""

from __future__ import annotations

import copy
import gc
import inspect
import random
import tracemalloc

import pytest

from repro.errors import DuplicateItemError, StorageError
from repro.qindb.checkpoint import Checkpoint, crash, recover
from repro.qindb import records
from repro.qindb.records import Bodies
from repro.qindb.engine import QinDB, QinDBConfig

DEVICE_BYTES = 64 * 1024 * 1024


def make_engine(**overrides) -> QinDB:
    config = QinDBConfig(segment_bytes=overrides.pop("segment_bytes", 1024 * 1024), **overrides)
    return QinDB.with_capacity(DEVICE_BYTES, config=config)


def memtable_image(engine: QinDB):
    """Every observable fact about the memtable, in sorted order."""
    return [
        (key, version, location, deduplicated, deleted, sequence)
        for key, version, (location, deduplicated, deleted, sequence)
        in engine.memtable.items()
    ]


#: QinDBStats fields that must match exactly between the two paths
#: (everything except the batch counters and time).
EQUIVALENT_FIELDS = [
    "user_bytes_written",
    "user_bytes_read",
    "aof_bytes_appended",
    "disk_used_bytes",
    "memtable_items",
    "memtable_bytes",
    "segment_count",
    "gc_runs",
    "gc_bytes_reappended",
    "device_host_bytes_written",
    "device_total_bytes_written",
]


def assert_equivalent(sequential: QinDB, batched: QinDB) -> None:
    assert memtable_image(sequential) == memtable_image(batched)
    assert sequential.gc_table.snapshot() == batched.gc_table.snapshot()
    seq_stats, batch_stats = sequential.stats(), batched.stats()
    for field in EQUIVALENT_FIELDS:
        assert getattr(seq_stats, field) == getattr(batch_stats, field), field


def mixed_items(count=400, key_space=150, seed=7):
    """A mixed-kind batch: values and dedup markers, each ``(key,
    version)`` once."""
    rng = random.Random(seed)
    items = {}
    for index in range(count):
        key = f"I:key-{rng.randint(0, key_space):04d}".encode()
        version = 1 + index % 3
        if index % 4 == 3:
            value = None  # deduplicated upstream
        else:
            value = bytes([index % 251]) * rng.randint(1, 700)
        items.setdefault((key, version), value)
    # Values must precede dedup markers per key so tracebacks resolve.
    return sorted(
        ((key, version, value) for (key, version), value in items.items()),
        key=lambda item: item[2] is None,
    )


def test_batch_matches_sequential_mixed_kinds():
    items = mixed_items()
    sequential, batched = make_engine(), make_engine()
    for key, version, value in items:
        sequential.put(key, version, value)
    batched.put_batch(items)
    assert_equivalent(sequential, batched)
    stats = batched.stats()
    assert stats.put_batches == 1
    assert stats.batched_puts == len(items)
    assert sequential.stats().put_batches == len(items)


def test_batch_matches_sequential_valueless_batch():
    """An all-dedup (value-less) batch over an existing base version."""
    base = [(f"k{i:03d}".encode(), 1, b"base-" + bytes([i])) for i in range(64)]
    dedup = [(key, 2, None) for key, _version, _value in base]
    sequential, batched = make_engine(), make_engine()
    for key, version, value in base:
        sequential.put(key, version, value)
    for key, version, value in dedup:
        sequential.put(key, version, value)
    batched.put_batch(base)
    batched.put_batch(dedup)
    assert_equivalent(sequential, batched)
    # Both paths traceback dedup reads to the same base records.
    for key, _version, value in base:
        assert batched.get(key, 2) == value == sequential.get(key, 2)


def test_batch_matches_sequential_across_segment_rollover():
    """Batches split across segments at the same points sequential
    appends would choose."""
    items = [
        (f"roll-{i:04d}".encode(), 1, bytes([i % 251]) * 4000)
        for i in range(80)
    ]
    sequential = make_engine(segment_bytes=256 * 1024)
    batched = make_engine(segment_bytes=256 * 1024)
    for key, version, value in items:
        sequential.put(key, version, value)
    batched.put_batch(items)
    assert batched.stats().segment_count > 1
    assert_equivalent(sequential, batched)


def engine_state(engine: QinDB):
    """What a refused put must leave exactly as it found."""
    return (
        memtable_image(engine),
        engine.gc_table.snapshot(),
        engine.aofs.bytes_appended,
        engine._sequence,
        engine.device.now,
        engine.stats().put_batches,
    )


@pytest.mark.parametrize(
    "case", ["live", "identical-retry", "deleted", "retired", "repeat-in-batch"]
)
def test_re_put_is_refused_with_the_engine_unchanged(case):
    """A version is written once: a batch naming a held ``(key,
    version)`` — live, deleted or retired, even with the same bytes — or
    one pair twice is refused before a sequence is drawn or a byte
    appended, and the engine takes the next batch as if it never came."""
    engine = make_engine()
    engine.put_batch([(b"held", 1, b"first"), (b"other", 1, b"x")])
    if case == "deleted":
        engine.delete_batch([(b"held", 1)])
    elif case == "retired":
        engine.retire_version(1)
    refused = {
        "identical-retry": [(b"new", 1, b"n"), (b"held", 1, b"first")],
        "repeat-in-batch": [
            (b"dup", 1, b"first"), (b"new", 1, b"n"), (b"dup", 1, b"second")
        ],
    }.get(case, [(b"new", 1, b"n"), (b"held", 1, b"second")])
    before = engine_state(engine)
    with pytest.raises(DuplicateItemError):
        engine.put_batch(refused)
    assert engine_state(engine) == before
    assert not engine.holds(b"new", 1) and not engine.holds(b"dup", 1)
    engine.put_batch([(b"new", 1, b"n"), (b"dup", 1, b"second")])
    held = None if case in ("deleted", "retired") else b"first"
    assert engine.get_batch([(b"new", 1), (b"dup", 1), (b"held", 1)]) == [
        b"n", b"second", held
    ]


def test_batch_recovery_contents_match_sequential():
    """Crash both engines; the recovered stores answer identically."""
    items = mixed_items(count=200, seed=11)
    sequential, batched = make_engine(), make_engine()
    for key, version, value in items:
        sequential.put(key, version, value)
    batched.put_batch(items)
    sequential.flush()
    batched.flush()
    recovered_seq = recover(crash(sequential), config=sequential.config)
    recovered_batch = recover(crash(batched), config=batched.config)
    assert memtable_image(recovered_seq) == memtable_image(recovered_batch)
    assert (
        recovered_seq.gc_table.snapshot() == recovered_batch.gc_table.snapshot()
    )
    assert recovered_seq._sequence == recovered_batch._sequence


def test_batch_coalesces_device_writes():
    """Same pages programmed, strictly fewer program commands."""
    items = [
        (f"co-{i:04d}".encode(), 1, bytes([i % 251]) * 3000) for i in range(64)
    ]
    sequential, batched = make_engine(), make_engine()
    for key, version, value in items:
        sequential.put(key, version, value)
    batched.put_batch(items)
    seq_stats, batch_stats = sequential.stats(), batched.stats()
    assert (
        seq_stats.device_host_bytes_written
        == batch_stats.device_host_bytes_written
    )
    assert batch_stats.device_write_ops < seq_stats.device_write_ops
    # Fewer serial command latencies means less simulated device time.
    assert batched.device.now < sequential.device.now


def test_batch_validation_precedes_any_append():
    engine = make_engine()
    with pytest.raises(StorageError):
        engine.put_batch([(b"good", 1, b"v"), (b"", 1, b"v")])
    # Nothing was stored: validation runs once, before any mutation.
    assert len(engine.memtable) == 0
    assert engine.stats().aof_bytes_appended == 0


def test_empty_batch_is_a_noop():
    engine = make_engine()
    before = engine.device.now
    engine.put_batch([])
    assert engine.device.now == before
    assert engine.stats().put_batches == 0


def test_unsorted_batch_input_is_sorted_internally():
    """Callers need not pre-sort; the engine orders for the skip list."""
    items = [(f"z-{i:02d}".encode(), 1, b"v") for i in range(20)]
    shuffled = list(items)
    random.Random(3).shuffle(shuffled)
    sequential, batched = make_engine(), make_engine()
    for key, version, value in shuffled:
        sequential.put(key, version, value)
    batched.put_batch(shuffled)
    assert_equivalent(sequential, batched)


def full_collections() -> None:
    """Two full collections, so nothing a verb left behind is pending."""
    gc.collect()
    gc.collect()


def lines_of(function):
    """``(filename, lineno)`` of every source line of ``function``."""
    lines, first = inspect.getsourcelines(function)
    filename = function.__code__.co_filename
    return [(filename, lineno) for lineno in range(first, first + len(lines))]


#: where the pieces of the flash images are made — the record bodies and
#: the heads a unit keeps by reference (``repro/ssd`` holds them)
FLASH_PIECE_LINES = lines_of(records.build_bodies) + lines_of(records.frame_heads)
#: where a batch's framing is made — its piece list and starts, which a
#: unit's extents keep, and its lengths and sequence column
FRAMING_LINES = lines_of(records.Bodies.frames) + lines_of(records.Frames.of)
#: what the memtable path holds: code in ``repro/qindb``, less the
#: pieces and the framing
MEMTABLE_FILTERS = [tracemalloc.Filter(True, "*/repro/qindb/*")] + [
    tracemalloc.Filter(False, filename, lineno)
    for filename, lineno in FLASH_PIECE_LINES + FRAMING_LINES
]
#: what the flash holds: the units' own columns and the pieces they keep
FLASH_FILTERS = [tracemalloc.Filter(True, "*/repro/ssd/*")] + [
    tracemalloc.Filter(True, filename, lineno)
    for filename, lineno in FLASH_PIECE_LINES
]
#: the framing alone
FRAMING_FILTERS = [
    tracemalloc.Filter(True, filename, lineno)
    for filename, lineno in FRAMING_LINES
]


def retained_bytes(verb, filters=MEMTABLE_FILTERS) -> int:
    """Bytes allocated where ``filters`` select while ``verb`` ran and
    still held afterwards (by default the memtable path: the table
    itself and anything it keeps alive, but not the flash images)."""
    full_collections()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(filters)
        verb()
        full_collections()
        after = tracemalloc.take_snapshot().filter_traces(filters)
    finally:
        tracemalloc.stop()
    return sum(stat.size_diff for stat in after.compare_to(before, "filename"))


class TrackedCensus:
    """Collector-tracked objects added since the last :meth:`grown`."""

    def __init__(self) -> None:
        full_collections()
        self.count = len(gc.get_objects())

    def grown(self) -> int:
        full_collections()
        before, self.count = self.count, len(gc.get_objects())
        return self.count - before


def test_memtable_holds_a_few_words_per_record():
    """A stored record costs the memtable one slot of its version's run
    — a dict entry and 33 column bytes, ~73 B here (~100 B when each run
    made its own slot number objects; slot ``i`` is now one int for
    every run) — and the cyclic collector nothing, whichever verb wrote
    it: a put, a delete, a GC relocation, a checkpoint load or the
    full-scan replay.
    A dict of item tuples held ~300 B per record here (item, location
    and ``(key, version)`` tuples plus their ints), two of them tracked
    objects until the collector's next pass."""
    engine = make_engine(segment_bytes=256 * 1024, gc_enabled=False)
    count = 2000
    keys = [f"k{index:05d}".encode() for index in range(count)]
    items = [(key, 1, bytes([index % 251]) * 64) for index, key in enumerate(keys)]
    census = TrackedCensus()
    per_record = retained_bytes(lambda: engine.put_batch(items)) / count
    assert per_record <= 120, per_record
    assert census.grown() < 100  # O(1), not O(count)
    # even keys' version 2 is value-less: its traceback lands on version 1
    engine.put_batch(
        [
            (key, 2, None if index % 2 == 0 else b"v2" * 40)
            for index, key in enumerate(keys)
        ]
    )
    assert census.grown() < 100
    engine.delete_batch([(key, 1) for key in keys[: count // 2]])
    assert census.grown() < 100
    assert engine.aofs.active_segment_id != 0
    engine.collect_segment(0)
    (moved_segment, _o, _l), _r, deleted, _s = engine.memtable.get(keys[0], 1)
    assert deleted and moved_segment != 0  # a dead base GC relocated
    assert engine.memtable.get(keys[1], 1) is None  # unreferenced: dropped
    assert census.grown() < 100
    assert engine.get(keys[0], 2) == bytes([0]) * 64
    checkpoint = Checkpoint.write(engine)
    image = memtable_image(engine)
    victim = copy.deepcopy(engine)
    census.grown()
    scanned = recover(crash(victim), config=engine.config)
    assert memtable_image(scanned) == image
    assert census.grown() < 100
    loaded = recover(crash(engine), config=engine.config, checkpoint=checkpoint)
    assert memtable_image(loaded) == image
    assert census.grown() < 100


def test_flash_keeps_a_head_and_a_body_reference_per_frame():
    """What a unit holds per stored frame: the 13-byte head object and
    the record body object — ~164 B for the 98-byte frames here (a
    private ``bytearray`` copy held ~98 B) — and no column of its own:
    one extent per append over the batch's piece list and starts, none
    of it collector-tracked.  (A unit that kept a piece pointer and a
    4-byte end offset per piece held ~189 B.)  Of a batch nobody else
    holds, the extent keeps the piece list and starts alive, 24 B per
    frame; the rest of its framing dies with it.  The body is built once
    and every replica keeps the same object, so a replica handed a built
    batch pays the head, ~46 B (the batch keeps its framing — piece
    list, sequence column, lengths and starts — for as long as it lives,
    outside this count).  A second replica framing that batch at the
    same sequences takes those heads and that framing too and pays
    nothing per frame (~25 B when each unit kept its own pointers and
    offsets, ~80 B when every replica made its own heads)."""
    count = 2000
    items = [
        (f"k{index:05d}".encode(), 1, bytes([index % 251]) * 64)
        for index in range(count)
    ]
    batch = Bodies(items)
    first, replica, second = (
        make_engine(segment_bytes=256 * 1024, gc_enabled=False) for _ in "abc"
    )
    census = TrackedCensus()
    retained = []

    def put_first():
        first.put_batch(items)
        full_collections()
        snapshot = tracemalloc.take_snapshot()
        retained.append(snapshot.filter_traces(FRAMING_FILTERS))

    per_frame = retained_bytes(put_first, FLASH_FILTERS) / count
    assert per_frame <= 180, per_frame
    framing = sum(stat.size for stat in retained[0].statistics("filename"))
    assert framing / count <= 26, framing / count
    assert census.grown() < 100
    per_replica_frame = retained_bytes(
        lambda: replica.put_batch(batch), FLASH_FILTERS
    ) / count
    assert per_replica_frame <= 60, per_replica_frame
    assert census.grown() < 100
    per_second_frame = retained_bytes(
        lambda: second.put_batch(batch), FLASH_FILTERS + FRAMING_FILTERS
    ) / count
    assert per_second_frame <= 4, per_second_frame
    assert census.grown() < 100
    assert memtable_image(second) == memtable_image(replica)


def test_gc_moves_a_frame_as_its_head_and_body_references():
    """A frame GC moves is re-appended as the head and body objects the
    victim held: the move adds the new unit's piece pointers and end
    offsets and erasing the victim frees the victim's.  What ``repro``
    code still holds per moved frame is therefore bounded by what a
    replica handed a built batch pays (~80 B, above); a moved copy of
    the 85-byte body would add ~120 B on its own."""
    count = 3000
    engine = make_engine(segment_bytes=256 * 1024, gc_enabled=False)
    engine.put_batch([
        (f"k{index:05d}".encode(), 1, bytes([index % 251]) * 64)
        for index in range(count)
    ])
    moved = sum(1 for _k, _v, item in engine.memtable.items() if item[0][0] == 0)
    assert engine.aofs.active_segment_id != 0 and 2000 < moved < count
    census = TrackedCensus()
    per_moved_frame = retained_bytes(
        lambda: engine.collect_segment(0), [tracemalloc.Filter(True, "*/repro/*")]
    ) / moved
    assert engine.gc_runs == 1 and engine.get(b"k00000", 1) == bytes(64)
    assert per_moved_frame <= 85, per_moved_frame
    assert census.grown() < 100
