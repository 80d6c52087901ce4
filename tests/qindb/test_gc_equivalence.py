"""Differential test: frame-level GC against the per-record collector.

:class:`ReferenceQinDB` carries the collector this repo shipped before
frame-level GC — decode every record of the victim, one re-encoded
append per survivor — verbatim.  Two engines are driven with the same
``put_batch`` / ``delete_batch`` / ``collect_segment`` sequences over
tiny blocks and segments (so survivors roll across a segment boundary
mid-collection) and must agree, after every collection, on every stored
byte and every piece of bookkeeping, and recover to the same memtable.
Only the device's command count and clock may differ: the new collector
programs its survivors as multi-page commands.
"""

from __future__ import annotations

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.qindb.checkpoint import crash, recover
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.records import (
    HEAD_SIZE,
    Frames,
    RecordType,
    encode_record,
    scan_frames,
)
from repro.qindb.records import scan_records
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry


class ReferenceQinDB(QinDB):
    """QinDB with the record-at-a-time collector (the parent's code)."""

    def _collect_segment(self, segment_id):
        if self.read_cache is not None:
            self.read_cache.invalidate_segment(segment_id)
        segment = self.aofs.segment(segment_id)
        segment.flush()
        unit = segment._unit
        image = unit.read(0, unit.size) if unit.size else b""
        reappended = self.gc_bytes_reappended
        for offset, record in scan_records(
            image, page_size=unit.page_size, tolerate_torn_tail=True
        ):
            location = (segment_id, offset, record.encoded_size)
            if record.type is RecordType.DELETE:
                self._gc_tombstone(record)
                continue
            item = self.memtable.get(record.key, record.version)
            if item is None or item[0] != location:
                continue  # superseded or already moved; dies with segment
            if not item[2]:  # the d flag
                self._reappend(record, item)
            elif record.type is RecordType.PUT_VALUE and (
                self.memtable.referenced(record.key, record.version)
            ):
                self._reappend(record, item)
            else:
                self.memtable.drop(record.key, record.version)
        if self.gc_bytes_reappended != reappended:
            self.aofs.flush()  # program the moves before the erase
        self.gc_table.forget(segment_id)
        self.aofs.drop_segment(segment_id)
        self.gc_runs += 1
        self._gc_since_checkpoint = True
        return {}

    def _append(self, record):
        """One re-encoded record onto the active AOF; its location."""
        frame = encode_record(record)
        (run,) = self.aofs.append_frames(
            Frames.of([frame[:HEAD_SIZE]], [frame[HEAD_SIZE:]])
        )
        return (run.segment_id, run.offset, run.nbytes)

    def _gc_tombstone(self, record):
        item = self.memtable.get(record.key, record.version)
        if item is None or not item[2]:  # the d flag
            return
        segment_id, _offset, length = self._append(record)
        self.gc_table.record_appended(segment_id, length)
        self.gc_table.record_dead(segment_id, length)
        self.gc_bytes_reappended += length

    def _reappend(self, record, item):
        location = self._append(record)
        segment_id, _offset, length = location
        self.gc_table.record_appended(segment_id, length)
        self.memtable.relocate(
            [(record.key, record.version)], *zip(location)
        )
        if item[2]:  # the d flag
            self.gc_table.record_dead(segment_id, length)
        self.gc_bytes_reappended += length


SEGMENT_BYTES = 4 * 1024


def engine_pair(threshold: float = 0.25, gc_enabled: bool = True):
    """(frame-level, reference) engines over 4 KB erase blocks, 512 B
    pages and one-block segments: about ten frames per segment."""
    engines = []
    for cls in (QinDB, ReferenceQinDB):
        geometry = SSDGeometry(
            block_count=512, pages_per_block=8, page_size=512, op_ratio=0.07
        )
        engines.append(
            cls(
                SimulatedSSD(geometry),
                config=QinDBConfig(
                    segment_bytes=SEGMENT_BYTES,
                    gc_occupancy_threshold=threshold,
                    gc_defer_min_free_blocks=0,
                    gc_enabled=gc_enabled,
                ),
            )
        )
    return engines


def memtable_dump(engine):
    """``(key, version) -> (location, deduplicated, deleted, sequence)``."""
    return {
        (key, version): item
        for key, version, item in engine.memtable.items()
    }


def segment_of(engine, key, version):
    """The segment an item's record lives in."""
    (segment_id, _offset, _length), _r, _d, _s = engine.memtable.get(
        key, version
    )
    return segment_id


def image_of(segment) -> bytes:
    """A segment's stored bytes, read from a copy of its unit so the
    device under comparison is not charged."""
    unit = copy.deepcopy(segment._unit)
    return unit.read(0, unit.size)


def stored_state(engine):
    """Everything the collector may touch, byte for byte."""
    counters = engine.device.counters
    return {
        "images": {
            segment.segment_id: image_of(segment)
            for segment in engine.aofs.segments
        },
        "active": engine.aofs.active_segment_id,
        "memtable": memtable_dump(engine),
        "gc_table": engine.gc_table.snapshot(),
        "gc_runs": engine.gc_runs,
        "gc_bytes_reappended": engine.gc_bytes_reappended,
        "bytes_appended": engine.aofs.bytes_appended,
        "device_bytes_written": counters.total_bytes_written,
        "device_bytes_read": counters.total_bytes_read,
        "blocks_erased": counters.blocks_erased,
    }


def recovered_memtable(engine):
    """The memtable a crash right now would recover to (on a copy)."""
    victim = copy.deepcopy(engine)
    return memtable_dump(recover(crash(victim), config=engine.config))


def assert_equivalent(new, old):
    assert stored_state(new) == stored_state(old)
    assert recovered_memtable(new) == recovered_memtable(old)


def both(engines, method, *args):
    for engine in engines:
        getattr(engine, method)(*args)


def value_of(key_index: int, version: int, size: int) -> bytes:
    return bytes([(key_index * 31 + version) % 251 + 1]) * size


def key_of(key_index: int) -> bytes:
    return f"key-{key_index:02d}".encode()


# ----------------------------------------------------------------------
# Hypothesis: any interleaving of batches, evictions and collections
# ----------------------------------------------------------------------
put_item = st.tuples(
    st.integers(min_value=0, max_value=7),  # key
    st.integers(min_value=1, max_value=5),  # version
    st.one_of(st.none(), st.integers(min_value=1, max_value=700)),  # size
)
operation = st.one_of(
    st.tuples(st.just("put"), st.lists(put_item, min_size=1, max_size=12)),
    st.tuples(
        st.just("delete"),
        st.lists(st.integers(min_value=0), min_size=1, max_size=10),
    ),
    st.tuples(st.just("collect"), st.integers(min_value=0)),
)


def apply(engines, op) -> bool:
    """Apply one operation to both engines; True if a collection ran."""
    new, old = engines
    runs_before = new.gc_runs
    kind, arg = op
    if kind == "put":
        # a version is written once: each item only if it is new
        fresh = {
            (key_index, version): size
            for key_index, version, size in arg
            if new.memtable.get(key_of(key_index), version) is None
        }
        items = [
            (
                key_of(key_index),
                version,
                None if size is None else value_of(key_index, version, size),
            )
            for (key_index, version), size in fresh.items()
        ]
        if items:
            both(engines, "put_batch", items)
    elif kind == "delete":
        live = [
            (key, version)
            for key, version, (_loc, _r, deleted, _s) in new.memtable.items()
            if not deleted
        ]
        if live:
            doomed = dict.fromkeys(live[pick % len(live)] for pick in arg)
            both(engines, "delete_batch", list(doomed))
    else:
        sealed = [
            segment.segment_id
            for segment in new.aofs.segments
            if segment.segment_id != new.aofs.active_segment_id
        ]
        if sealed:
            both(engines, "collect_segment", sealed[arg % len(sealed)])
    return new.gc_runs != runs_before


@given(
    ops=st.lists(operation, max_size=30),
    threshold=st.sampled_from([0.25, 0.6]),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_frame_gc_matches_record_gc(ops, threshold):
    engines = engine_pair(threshold=threshold)
    for op in ops:
        if apply(engines, op):
            assert_equivalent(*engines)
    assert_equivalent(*engines)


def test_churn_run_collects_and_rolls_segments():
    """The property above must actually exercise what it claims to: a
    deterministic run with many collections, survivors split across a
    segment boundary, carried tombstones and re-appended dead bases."""
    engines = engine_pair()
    new, old = engines
    split_collections = 0
    for cycle in range(1, 13):
        items = [
            (
                key_of(index),
                cycle,
                # every third key is deduplicated down to an older value
                None if (index + cycle) % 3 == 0 and cycle > 1
                else value_of(index, cycle, 150 + 40 * (index % 5)),
            )
            for index in range(8)
        ]
        both(engines, "put_batch", items)
        if cycle > 3:
            both(
                engines, "delete_batch",
                [(key_of(index), cycle - 3) for index in range(8)],
            )
        assert_equivalent(new, old)
        # also collect the fullest sealed segment: most survivors
        sealed = [
            segment.segment_id
            for segment in new.aofs.segments
            if segment.segment_id != new.aofs.active_segment_id
        ]
        if not sealed:
            continue
        occupancy = new.gc_table.snapshot()
        victim = max(sealed, key=lambda sid: occupancy.get(sid, 1.0))
        segments_before = {s.segment_id for s in new.aofs.segments}
        both(engines, "collect_segment", victim)
        opened = {s.segment_id for s in new.aofs.segments} - segments_before
        split_collections += bool(opened)
        assert_equivalent(new, old)
    assert new.gc_runs >= 10
    assert split_collections > 0, "no collection rolled into a new segment"
    assert new.gc_bytes_reappended > 0
    assert any(
        deleted for _k, _v, (_loc, _r, deleted, _s) in new.memtable.items()
    ), "no dead-but-referenced base survived"


# ----------------------------------------------------------------------
# Pinned cases
# ----------------------------------------------------------------------
def fill(engines, tag: str, count: int = 12, size: int = 400):
    """Live filler that seals the active segment (and then some)."""
    items = [
        (f"{tag}-{index:02d}".encode(), 1, bytes([65 + index]) * size)
        for index in range(count)
    ]
    both(engines, "put_batch", items)
    return [(key, version) for key, version, _value in items]


def frames_of(engine, segment_id):
    segment = engine.aofs.segment(segment_id)
    return scan_frames([image_of(segment)], segment._unit.page_size)[0]


def test_tombstone_physically_before_its_put():
    """GC moves a referenced dead put *past* its tombstone; collecting
    that segment meets the tombstone first and must still carry both."""
    engines = engine_pair(gc_enabled=False)
    new, old = engines
    both(engines, "put_batch", [(b"url", 1, b"base" * 60), (b"url", 2, None)])
    fill(engines, "a")  # seals segment 0
    both(engines, "delete_batch", [(b"url", 1)])  # tombstone, later segment
    tomb_segment = new.aofs.active_segment_id
    assert segment_of(new, b"url", 1) == 0
    both(engines, "collect_segment", 0)  # url/1 dead but referenced: moves
    assert_equivalent(new, old)
    assert segment_of(new, b"url", 1) == tomb_segment
    order = [
        (rtype, key, version)
        for _o, _e, rtype, key, version, _s in frames_of(new, tomb_segment)
        if key == b"url" and version == 1
    ]
    assert order == [
        (RecordType.DELETE, b"url", 1), (RecordType.PUT_VALUE, b"url", 1),
    ]
    fill(engines, "b")  # seal it
    assert new.aofs.active_segment_id != tomb_segment
    both(engines, "collect_segment", tomb_segment)
    assert_equivalent(new, old)
    for engine in engines:
        item = engine.memtable.get(b"url", 1)
        assert item is not None and item[2]  # the d flag
        assert engine.get(b"url", 2) == b"base" * 60
    # and the delete still wins after a crash
    assert recovered_memtable(new)[(b"url", 1)][2] is True


def test_dead_base_referenced_by_live_dedup_version_survives():
    engines = engine_pair(gc_enabled=False)
    new, old = engines
    both(
        engines, "put_batch",
        [(b"doc", 1, b"v1" * 100), (b"doc", 2, None), (b"doc", 3, None),
         (b"gone", 1, b"g" * 200)],
    )
    fill(engines, "a")
    both(engines, "delete_batch", [(b"doc", 1), (b"doc", 2), (b"gone", 1)])
    both(engines, "collect_segment", 0)
    assert_equivalent(new, old)
    for engine in engines:
        base = engine.memtable.get(b"doc", 1)
        assert base is not None
        (base_segment, _o, _l), deduplicated, deleted, _s = base
        assert deleted and not deduplicated
        assert base_segment != 0
        # doc/2 is dead and value-less: nothing resolves *to* it
        assert engine.memtable.get(b"doc", 2) is None
        assert engine.memtable.get(b"gone", 1) is None
        assert engine.get(b"doc", 3) == b"v1" * 100
        # the moved base stays dead in its new segment's accounting
        assert engine.gc_table.snapshot().get(base_segment, 1.0) < 1.0


def crash_and_recover(engine):
    """``engine`` after a power cut and a full-scan recovery, still
    running its own collector."""
    recovered = recover(crash(engine), config=engine.config)
    recovered.__class__ = type(engine)
    return recovered


def test_torn_tail_on_the_victim_ends_the_walk():
    """A crash cuts the active segment at its last programmed page, inside
    a frame; recovery seals the segment, and collecting it moves every
    frame ahead of the tear."""
    engines = engine_pair(gc_enabled=False)
    keys = fill(engines, "a", count=7)
    segment = engines[0].aofs.segment(0)
    programmed = segment.size - segment.size % segment.page_size
    torn = next(
        frame for frame in frames_of(engines[0], 0)
        if frame[0] < programmed < frame[1]
    )
    new, old = engines = [crash_and_recover(engine) for engine in engines]
    assert new.aofs.active_segment_id is None  # sealed behind the tear
    intact = frames_of(new, 0)
    assert intact == frames_of(old, 0)
    assert intact[-1][1] == torn[0]  # the walk ends where the tear begins
    both(engines, "collect_segment", 0)
    assert_equivalent(new, old)
    # every frame ahead of the torn one moved and still reads back
    kept = [key for key, version in keys if new.memtable.get(key, version)]
    assert len(kept) == len(intact)
    for key in kept:
        assert segment_of(new, key, 1) != 0
        assert new.get(key, 1) == old.get(key, 1) != b""


def test_all_dead_victim_appends_nothing_and_is_erased():
    engines = engine_pair(gc_enabled=False)
    new, old = engines
    keys = fill(engines, "a")
    in_victim = [
        (key, version) for key, version in keys
        if segment_of(new, key, version) == 0
    ]
    both(engines, "delete_batch", in_victim)
    fill(engines, "b", count=3)
    for engine in engines:
        appended_before = engine.aofs.bytes_appended
        segments_before = {s.segment_id for s in engine.aofs.segments}
        erased_before = engine.device.counters.blocks_erased
        write_ops_before = engine.device.counters.host_write_ops
        engine.collect_segment(0)
        assert engine.aofs.bytes_appended == appended_before
        assert engine.gc_bytes_reappended == 0
        assert {s.segment_id for s in engine.aofs.segments} == (
            segments_before - {0}
        )
        assert engine.device.counters.blocks_erased > erased_before
        assert engine.device.counters.host_write_ops == write_ops_before
        assert all(engine.memtable.get(*pair) is None for pair in in_victim)
    assert_equivalent(new, old)
