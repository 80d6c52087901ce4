"""Differential test: the columnar write path against a per-frame one.

An append answers with one run per segment it wrote, and the memtable
takes a batch as columns (:class:`~repro.qindb.memtable.ItemColumns`,
the runs' locations, the sequence column).  :class:`PerFrameQinDB`
keeps the shape that path replaced, in this test only: every frame is
appended on its own and answers with its ``(segment, offset, length)``,
and every item goes into the memtable on its own with that location.

Two pairs of engines — columnar and per-frame — take the same
operations over 4 KB segments (so batches straddle segment boundaries):
put batches of several versions, deletes (tombstones), version
retirements (``RETIRE`` frames), collections (GC moves) and
checkpoints.  Every batch is one :class:`~repro.qindb.records.Bodies`
object shared by all four engines, and the second pair drew one extra
sequence number first, so its frames (heads, pieces, sequence column)
are its own while the first pair's are shared.  After every operation
each columnar engine must agree with its per-frame twin on every stored
piece, memtable item and GC-table row, and on what a crash would
recover to; a checkpoint of it must load, columnar, into the memtable a
row-at-a-time load builds.
"""

from __future__ import annotations

import copy

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateItemError, KeyNotFoundError
from repro.qindb.checkpoint import _HEADER, _ROW, Checkpoint, crash, recover
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.memtable import DEDUP, DELETED
from repro.qindb.records import (
    HEADER_SIZE,
    Bodies,
    RecordType,
    build_bodies,
    frame_heads,
)
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry


class PerFrameQinDB(QinDB):
    """QinDB whose every write appends and indexes one frame at a time."""

    def _append_one(self, head: bytes, body: bytes):
        """One frame onto the active segment (rolled when full), as the
        AOF appended before it answered in runs; its location."""
        aofs = self.aofs
        segment = aofs._active
        if segment is None or segment.is_full:
            segment = aofs._open_segment()
        offset = segment._unit.append_many([head, body])
        segment.record_count += 1
        length = len(head) + len(body)
        aofs.bytes_appended += length
        return (segment.segment_id, offset, length)

    def put_batch(self, items) -> None:
        self._check_open()
        batch = Bodies.of(items)
        if not batch:
            return
        seen = set()
        for item_key in batch.item_keys:
            if item_key in seen or self.memtable.get(*item_key) is not None:
                raise DuplicateItemError(f"re-put of {item_key!r}")
            seen.add(item_key)
        sequences = self._draw_sequences(len(batch))
        heads = frame_heads(sequences, batch.checksums)
        for (key, version), head, body, sequence, dedup in zip(
            batch.item_keys, heads, batch.bodies, sequences, batch.dedup
        ):
            location = self._append_one(head, body)
            self.gc_table.record_appended(location[0], location[2])
            self.memtable.put(key, version, location, dedup, sequence)
            self.user_bytes_written += location[2] - HEADER_SIZE
        self.batch_counters.batches += 1
        self.batch_counters.batched_puts += len(batch)
        self._charge_cpu()
        self._maybe_gc()
        self._maybe_checkpoint()

    def delete_batch(self, items) -> None:
        self._check_open()
        if not items:
            return
        resolved = self.memtable.get_batch(items)
        seen = set()
        for item_key, item in zip(items, resolved):
            if item is None or item[2] or item_key in seen:
                raise KeyNotFoundError(f"no live item for {item_key!r}")
            seen.add(item_key)
        keys, versions = zip(*items)
        bodies, checksums = build_bodies(
            [int(RecordType.DELETE)] * len(items), keys, versions,
            [b""] * len(items),
        )
        self.memtable.mark_deleted_batch(items)
        sequences = self._draw_sequences(len(bodies))
        for item in resolved:
            self.gc_table.record_dead(item[0][0], item[0][2])
        for head, body in zip(frame_heads(sequences, checksums), bodies):
            segment_id, _offset, length = self._append_one(head, body)
            self.gc_table.record_appended(segment_id, length)
            self.gc_table.record_dead(segment_id, length)
        self._charge_cpu()
        self._maybe_gc()
        self._maybe_checkpoint()

    def retire_version(self, version: int) -> int:
        self._check_open()
        count, dead = self.memtable.retire(version)
        if not count:
            return 0
        for segment_id, nbytes in dead.items():
            self.gc_table.record_dead(segment_id, nbytes)
        bodies, checksums = build_bodies(
            [int(RecordType.RETIRE)], [b""], [version], [b""]
        )
        head = frame_heads(self._draw_sequences(1), checksums)[0]
        segment_id, _offset, length = self._append_one(head, bodies[0])
        self.gc_table.record_appended(segment_id, length)
        self.gc_table.record_dead(segment_id, length)
        self._charge_cpu()
        self._maybe_gc()
        self._maybe_checkpoint()
        return count

    def _collect_segment(self, segment_id: int):
        segment = self.aofs.segment(segment_id)
        frames, heads, bodies, _torn = segment.read_frames()
        kept, owners, dead = self.memtable.survivors(segment_id, frames)
        for index, owner, is_dead in zip(kept, owners, dead):
            location = self._append_one(heads[index], bodies[index])
            moved_id, _offset, length = location
            self.gc_table.record_appended(moved_id, length)
            self.gc_bytes_reappended += length
            if owner is not None:
                self.memtable.relocate([owner], *zip(location))
            if is_dead:
                self.gc_table.record_dead(moved_id, length)
        if kept:
            self.aofs.flush()  # program the moves before the erase
        self.gc_table.forget(segment_id)
        self.aofs.drop_segment(segment_id)
        self.gc_runs += 1
        self._gc_since_checkpoint = True
        return {}


def load_row_at_a_time(checkpoint: Checkpoint, engine: QinDB) -> None:
    """:meth:`Checkpoint.load_into` as it was before it built columns:
    one memtable insert per row."""
    unit = checkpoint.unit
    count = _HEADER.unpack(unit.read(0, _HEADER.size))[1]
    body = unit.read(_HEADER.size, unit.size - _HEADER.size)
    offset = 0
    for _ in range(count):
        key_len, version, sequence, segment_id, at, length, flags = (
            _ROW.unpack_from(body, offset)
        )
        offset += _ROW.size
        key = bytes(body[offset : offset + key_len])
        offset += key_len
        engine.memtable.put(
            key, version, (segment_id, at, length), bool(flags & DEDUP),
            sequence,
        )
        engine.gc_table.record_appended(segment_id, length)
        if flags & DELETED:
            engine.memtable.mark_deleted(key, version)
            engine.gc_table.record_dead(segment_id, length)


def small_engine(cls):
    geometry = SSDGeometry(
        block_count=512, pages_per_block=8, page_size=512, op_ratio=0.07
    )
    return cls(
        SimulatedSSD(geometry),
        config=QinDBConfig(
            segment_bytes=4 * 1024,
            gc_occupancy_threshold=0.5,
            gc_defer_min_free_blocks=0,
        ),
    )


def stored(engine):
    """Every stored piece, memtable item and GC-table row."""
    return {
        "pieces": {
            segment.segment_id: [
                bytes(piece)
                for extent in segment._unit.extents
                for piece in extent.pieces[
                    extent.stride * extent.first : extent.stride * extent.stop
                ]
            ]
            for segment in engine.aofs.segments
        },
        "active": engine.aofs.active_segment_id,
        "memtable": list(engine.memtable.items()),
        "memtable_bytes": engine.memtable.approximate_bytes,
        "gc_table": {
            segment_id: (row.total_bytes, row.dead_bytes)
            for segment_id, row in engine.gc_table._segments.items()
        },
        "sequence": engine._sequence,
        "bytes_appended": engine.aofs.bytes_appended,
        "user_bytes_written": engine.user_bytes_written,
        "gc_bytes_reappended": engine.gc_bytes_reappended,
    }


def recovered(engine):
    """What a crash now recovers to (on a copy: the engine runs on)."""
    victim = copy.deepcopy(engine)
    victim.flush()
    return stored(recover(crash(victim), config=engine.config))


def loaded(engine, load):
    """The memtable and GC table a checkpoint of ``engine`` loads into a
    fresh engine on a copy of its device."""
    source = copy.deepcopy(engine)
    checkpoint = Checkpoint.write(source)
    fresh = QinDB(source.device, source.config, aofs=source.aofs)
    load(checkpoint, fresh)
    return list(fresh.memtable.items()), fresh.gc_table.snapshot()


KEYS = [b"k%d" % index for index in range(6)]


def value_of(size: int) -> bytes:
    return bytes([size % 251]) * size

put_item = st.tuples(
    st.sampled_from(KEYS),
    st.integers(min_value=1, max_value=4),  # version
    st.one_of(st.none(), st.integers(min_value=1, max_value=700)),
)
operation = st.one_of(
    st.tuples(st.just("put"), st.lists(put_item, min_size=1, max_size=12)),
    st.tuples(
        st.just("delete"),
        st.lists(st.integers(min_value=0), min_size=1, max_size=6),
    ),
    st.tuples(st.just("retire"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("collect"), st.integers(min_value=0)),
    st.tuples(st.just("checkpoint"), st.none()),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(operation, min_size=1, max_size=14))
def test_columnar_path_stores_what_the_per_frame_path_stores(ops):
    pairs = [
        (small_engine(QinDB), small_engine(PerFrameQinDB)) for _ in range(2)
    ]
    for engine in pairs[1]:  # this pair frames every batch one later
        engine.put(b"diverged", 9, b"d")
    for kind, arg in ops:
        columnar = pairs[0][0]
        if kind == "put":
            fresh = {
                (key, version): size
                for key, version, size in arg
                if columnar.memtable.get(key, version) is None
            }
            batch = Bodies(
                (key, version, None if size is None else value_of(size))
                for (key, version), size in fresh.items()
            )
            for pair in pairs:
                for engine in pair:
                    engine.put_batch(batch)
        elif kind == "delete":
            live = sorted(
                (key, version)
                for key, version, item in columnar.memtable.items()
                if not item[2]
            )
            if live:
                doomed = list(dict.fromkeys(live[i % len(live)] for i in arg))
                for pair in pairs:
                    for engine in pair:
                        engine.delete_batch(doomed)
        elif kind == "retire":
            for pair in pairs:
                assert len({engine.retire_version(arg) for engine in pair}) < 2
        elif kind == "collect":
            for pair in pairs:
                aofs = pair[0].aofs
                sealed = [
                    segment.segment_id
                    for segment in aofs.segments
                    if segment.segment_id != aofs.active_segment_id
                ]
                if sealed:
                    for engine in pair:
                        engine.collect_segment(sealed[arg % len(sealed)])
        else:
            for new, old in pairs:
                assert loaded(new, Checkpoint.load_into) == loaded(
                    old, load_row_at_a_time
                )
        for new, old in pairs:
            assert stored(new) == stored(old)
    for new, old in pairs:
        assert recovered(new) == recovered(old)


def test_a_batch_across_a_segment_boundary_is_two_runs():
    """A batch larger than the room left fills its segment and goes on
    in the next: two runs, and the memtable holds each frame where its
    run put it, as appending the frames one at a time does."""
    new, old = small_engine(QinDB), small_engine(PerFrameQinDB)
    batch = Bodies([(b"k%02d" % index, 1, b"v" * 500) for index in range(12)])
    for engine in (new, old):
        engine.put_batch(batch)
    assert new.aofs.segment_count == 2
    assert stored(new) == stored(old)
    assert recovered(new) == recovered(old)
