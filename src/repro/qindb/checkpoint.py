"""Crash recovery: full AOF scan, optionally accelerated by a checkpoint.

The paper accepts a longer recovery in exchange for write throughput: "we
have to scan all AOFs for reconstruction of the memtable and the GC
table", mitigated by (a) periodic memtable checkpoints and (b) Mint's
replicas hiding a recovering node.  This module implements both the scan
and the checkpoint.

Ordering: the physical order of records on disk is *not* the logical
order of mutations, because GC re-appends old records into newer
segments.  Every record therefore carries its logical sequence number:

* a ``PUT`` installs its item.  A copy at the installed sequence is a
  GC duplicate (a crash between a move and its victim's erase): the item
  takes the later, moved copy, the victim's goes dead, and recovery ends
  by collecting the victim, as the crashed collection would have.  A
  copy at another sequence no write-once engine made: a CorruptionError;
* a ``DELETE`` tombstone kills the item if the tombstone's sequence
  exceeds the installed put's;
* tombstones seen before their target (GC can move a put past its
  tombstone) are remembered and applied when the put arrives;
* a ``RETIRE`` frame is a tombstone for a whole version: it kills every
  item of its version whose put has a lower sequence — those installed
  already, and those that arrive later in the scan.  A key first put
  into the version after its ``RETIRE`` stays live.

A crash can leave the front of one frame programmed at the end of the
segment that was active (a *torn tail*).  The walk ends there; recovery
counts those bytes dead and seals the segment, so the engine's next
append opens a fresh one instead of landing behind bytes no later walk
could step over.

A checkpoint serializes the memtable and GC table to a native unit with an
AOF watermark; recovery loads it and replays only records past the
watermark — sealed segments older than the watermark are not even read,
which is what makes checkpoints cheaper than the full scan.  A GC run
invalidates outstanding checkpoints (it rewrites locations), falling back
to the full scan — the conservative choice the paper's "checkpointed
periodically" allows.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.errors import CorruptionError
from repro.qindb.aof import AofManager
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.memtable import DEDUP, DELETED, ItemColumns
from repro.qindb.records import RecordType
from repro.ssd.native import NativeBlockInterface, NativeUnit

#: key_len, version, sequence, segment, offset, length, flags (the
#: memtable's ``DEDUP`` and ``DELETED`` bits)
_ROW = struct.Struct("<H Q Q q q l B")
#: magic, item_count, max_sequence, watermark_seg, watermark_size
_HEADER = struct.Struct("<4s q q q q")
_MAGIC = b"QCKP"


@dataclass
class Checkpoint:
    """A durable snapshot of the memtable, tied to an AOF watermark."""

    unit: NativeUnit
    watermark_segment: int
    watermark_size: int
    item_count: int
    max_sequence: int

    @classmethod
    def write(cls, engine: QinDB, tag: str = "checkpoint") -> "Checkpoint":
        """Serialize the engine's memtable to a fresh native unit."""
        engine.flush()
        # The newest segment is the watermark whether or not it is still
        # active (recovery seals a torn one, GC may drop the active one):
        # ids only grow, so every later append lands at or past it.
        segments = engine.aofs.segments
        if segments:
            watermark_segment = segments[-1].segment_id
            watermark_size = segments[-1].size
        else:
            watermark_segment, watermark_size = -1, 0
        native = NativeBlockInterface(engine.device)
        unit = native.open_unit(tag=tag)
        count = 0
        rows = bytearray()
        for key, version, item in engine.memtable.items():
            (segment_id, offset, length), deduplicated, deleted, sequence = item
            flags = (DEDUP if deduplicated else 0) | (DELETED if deleted else 0)
            rows += _ROW.pack(
                len(key), version, sequence, segment_id, offset, length, flags
            )
            rows += key
            count += 1
        unit.append(
            _HEADER.pack(
                _MAGIC, count, engine._sequence, watermark_segment, watermark_size
            )
        )
        unit.append(bytes(rows))
        unit.flush()
        engine._gc_since_checkpoint = False
        return cls(unit, watermark_segment, watermark_size, count, engine._sequence)

    @property
    def size(self) -> int:
        """Bytes the checkpoint occupies."""
        return self.unit.size

    def load_into(self, engine: QinDB) -> None:
        """Rebuild ``engine``'s memtable and GC table from this snapshot."""
        header = self.unit.read(0, _HEADER.size)
        magic, count, max_sequence, _wseg, _wsize = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise CorruptionError("bad checkpoint magic")
        body = self.unit.read(_HEADER.size, self.unit.size - _HEADER.size)
        offset = 0
        item_keys, flag_column = [], bytearray()
        sequences, segments, offsets, lengths = (array("q") for _ in range(4))
        for _ in range(count):
            key_len, version, sequence, seg, off, length, flags = _ROW.unpack_from(
                body, offset
            )
            offset += _ROW.size
            item_keys.append((bytes(body[offset : offset + key_len]), version))
            offset += key_len
            sequences.append(sequence)
            segments.append(seg)
            offsets.append(off)
            lengths.append(length)
            flag_column.append(flags & (DEDUP | DELETED))
            engine.gc_table.record_appended(seg, length)
            if flags & DELETED:
                engine.gc_table.record_dead(seg, length)
        engine.memtable.put_batch(
            ItemColumns(item_keys, bytes(flag_column)),
            sequences, segments, offsets, lengths,
        )
        engine._sequence = max(engine._sequence, max_sequence)

    def discard(self) -> None:
        """Erase the checkpoint's blocks."""
        self.unit.erase()


def crash(engine: QinDB) -> AofManager:
    """Simulate a power failure: the memtable vanishes, buffered partial
    pages are lost, and only what was programmed onto flash remains.

    Returns the surviving on-disk state (the AOF manager); feed it to
    :func:`recover`.
    """
    for segment in engine.aofs.segments:
        # Bytes still in the page-fill buffer never hit flash.
        segment._unit.discard_unprogrammed()
    engine._closed = True
    return engine.aofs


def recover(
    aofs: AofManager,
    config: Optional[QinDBConfig] = None,
    checkpoint: Optional[Checkpoint] = None,
    checkpoint_valid: bool = True,
) -> QinDB:
    """Rebuild a QinDB from surviving AOFs (plus an optional checkpoint).

    Without a checkpoint this is the paper's full scan: every segment is
    read sequentially and the memtable and GC table are reconstructed.
    With a valid checkpoint, only records past the watermark are replayed.
    """
    # Everything volatile starts cold (memtable, GC table, read cache,
    # counters); only the AOFs survived.
    engine = QinDB(aofs.device, config, aofs=aofs)

    watermark_segment, watermark_size = -1, -1
    if checkpoint is not None and checkpoint_valid:
        checkpoint.load_into(engine)
        watermark_segment = checkpoint.watermark_segment
        watermark_size = checkpoint.watermark_size

    def replay_frames():
        """Frames past the watermark; fully-covered segments are not
        even read (this is what makes checkpoints cheaper than scans)."""
        for segment in aofs.segments:
            if segment.segment_id < watermark_segment:
                continue
            frames, _heads, _bodies, torn = segment.read_frames()
            if torn:
                # The crash cut the last frame short.  Its programmed
                # front stays on flash, dead weight until GC erases the
                # segment — and nothing may be appended behind it: the
                # walk would take the new bytes for the torn frame's body.
                engine.gc_table.record_appended(segment.segment_id, torn)
                engine.gc_table.record_dead(segment.segment_id, torn)
                if segment.segment_id == aofs.active_segment_id:
                    aofs.seal_active()
            for frame in frames:
                if (
                    segment.segment_id == watermark_segment
                    and frame[0] < watermark_size
                ):
                    continue
                yield segment.segment_id, frame

    #: highest tombstone sequence seen per (key, version)
    pending_tombstones: Dict[Tuple[bytes, int], int] = {}
    #: highest RETIRE sequence seen per version
    retired: Dict[int, int] = {}
    #: segments a crashed collection left unerased
    victims: Set[int] = set()
    for segment_id, frame in replay_frames():
        offset, end, rtype, key, version, sequence = frame
        engine._sequence = max(engine._sequence, sequence)
        key_version = (key, version)
        size = end - offset
        if rtype == RecordType.RETIRE:
            retired[version] = max(retired.get(version, -1), sequence)
            _count, dead = engine.memtable.retire(version, before=sequence)
            for seg, nbytes in dead.items():
                engine.gc_table.record_dead(seg, nbytes)
            engine.gc_table.record_appended(segment_id, size)
            engine.gc_table.record_dead(segment_id, size)
            continue
        if rtype == RecordType.DELETE:
            previous_tomb = pending_tombstones.get(key_version, -1)
            pending_tombstones[key_version] = max(previous_tomb, sequence)
            item = engine.memtable.get(key, version)
            if item is not None:
                (seg, _off, length), _r, deleted, put_sequence = item
                if not deleted and sequence > put_sequence:
                    engine.memtable.mark_deleted(key, version)
                    engine.gc_table.record_dead(seg, length)
            # Account the tombstone's own bytes (appended and dead).
            engine.gc_table.record_appended(segment_id, size)
            engine.gc_table.record_dead(segment_id, size)
            continue

        engine.gc_table.record_appended(segment_id, size)
        existing = engine.memtable.get(key, version)
        if existing is not None:
            first, _r, deleted, first_sequence = existing
            if sequence != first_sequence:
                raise CorruptionError(
                    f"two puts of {key!r}/{version}: sequences "
                    f"{first_sequence} and {sequence}"
                )
            # A GC duplicate: the collection that moved this frame
            # crashed before erasing its victim, the first copy's
            # segment.  The item takes the moved copy, the victim's
            # goes dead, and the victim is collected once the walk ends.
            engine.memtable.relocate(
                [key_version], [segment_id], [offset], [size]
            )
            if deleted:
                engine.gc_table.record_dead(segment_id, size)
            else:
                engine.gc_table.record_dead(first[0], first[2])
            victims.add(first[0])
            continue
        engine.memtable.put(
            key, version, (segment_id, offset, size),
            rtype == RecordType.PUT_DEDUP, sequence,
        )
        tombstone_sequence = max(
            pending_tombstones.get(key_version, -1), retired.get(version, -1)
        )
        if tombstone_sequence > sequence:
            # GC moved this put physically past its tombstone (or its
            # version's RETIRE); the delete still logically follows it.
            engine.memtable.mark_deleted(key, version)
            engine.gc_table.record_dead(segment_id, size)
    # Finish what the crashed collections began: whatever of a victim
    # still lives (a frame whose move did not reach flash, say) moves
    # now, and its stale copies go with its erase, so no later scan can
    # install one behind a tombstone GC has since dropped.
    for segment_id in sorted(victims):
        engine.collect_segment(segment_id)
    return engine
