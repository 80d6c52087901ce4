"""Append-only files: fixed-size segments on the native SSD interface.

An :class:`AofSegment` is one 64 MB (configurable) append-only file backed
by a block-aligned :class:`~repro.ssd.native.NativeUnit`.  The
:class:`AofManager` chains segments: appends go to the active segment and
roll over when it is full; GC erases whole segments and the manager hands
out fresh ones.

Offsets are segment-local, so a record's address is the pair
``(segment_id, offset)`` — exactly the ``offset`` field of the paper's
memtable items.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from repro.errors import StorageError
from repro.qindb.records import HEAD_SIZE, Frame, decode_value, scan_frames
from repro.ssd.device import SimulatedSSD
from repro.ssd.native import NativeBlockInterface, NativeUnit

DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024

#: Durable address of one record: ``(segment_id, offset, length)``.
#: The memtable stores it as three column cells and builds the tuple on
#: access; the read path keys its batch and the read cache by it.
RecordLocation = Tuple[int, int, int]


class AofSegment:
    """One fixed-capacity append-only file."""

    def __init__(
        self, segment_id: int, unit: NativeUnit, capacity_bytes: int
    ) -> None:
        self.segment_id = segment_id
        self.capacity_bytes = capacity_bytes
        self._unit = unit
        self.record_count = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Bytes appended so far (including page padding)."""
        return self._unit.size

    @property
    def occupied_bytes(self) -> int:
        """Block-granular footprint on the device."""
        return self._unit.occupied_bytes

    @property
    def page_size(self) -> int:
        """Padding granularity of the backing unit."""
        return self._unit.page_size

    @property
    def is_full(self) -> bool:
        """Whether the segment has reached its capacity."""
        return self._unit.size >= self.capacity_bytes

    # ------------------------------------------------------------------
    def append_frames(
        self, heads: Sequence[bytes], bodies: Sequence[bytes]
    ) -> Tuple[List[RecordLocation], int]:
        """Append as many frames as fit, back-to-back: frame ``i`` is
        ``heads[i]`` (:data:`~repro.qindb.records.HEAD_SIZE` bytes), then
        ``bodies[i]``.

        A frame is accepted while the segment is not yet full, so the
        split point does not depend on how the frames were batched.  The
        accepted heads and bodies go down as pieces in one
        :meth:`~repro.ssd.native.NativeUnit.append_many`, which keeps
        them by reference and coalesces full pages into multi-page
        programs.  Returns the accepted frames' locations (a prefix) and
        their total bytes.
        """
        if self.is_full:
            raise StorageError(f"segment {self.segment_id} is full")
        room = self.capacity_bytes - self.size
        lengths = list(map(HEAD_SIZE.__add__, map(len, bodies)))
        nbytes = sum(lengths)
        # A frame is admitted while the segment is not yet full *before*
        # it is appended, so the whole batch fits iff the bytes ahead of
        # the last frame leave room.
        if not lengths or nbytes - lengths[-1] >= room:
            nbytes = 0
            for accepted, length in enumerate(lengths):
                if nbytes >= room:
                    heads, bodies = heads[:accepted], bodies[:accepted]
                    lengths = lengths[:accepted]
                    break
                nbytes += length
        pieces = [b""] * (2 * len(lengths))
        pieces[::2], pieces[1::2] = heads, bodies
        start = self._unit.append_many(pieces)
        self.record_count += len(lengths)
        segment_id = self.segment_id
        offsets = accumulate(lengths, initial=start)
        return [
            (segment_id, offset, length)
            for offset, length in zip(offsets, lengths)
        ], nbytes

    def _foreign(self, location: RecordLocation) -> StorageError:
        return StorageError(
            f"location {location} does not belong to segment {self.segment_id}"
        )

    def read_values(self, locations: List[RecordLocation]) -> List[bytes]:
        """Verified values of the frames at ``locations``, in input order,
        read as one command set: the union of pages they touch, coalesced
        (:meth:`~repro.ssd.native.NativeUnit.read_many`)."""
        ranges = []
        for location in locations:
            if location[0] != self.segment_id:
                raise self._foreign(location)
            ranges.append(location[1:])
        return list(map(decode_value, self._unit.read_many(ranges)))

    def read_frames(self) -> Tuple[List[Frame], List[bytes], List[bytes], int]:
        """What GC and recovery walk: the segment's verified frames, their
        heads and bodies, and its torn-tail bytes.  One sequential read of
        its programmed pages, the unit's pieces walked unjoined
        (:func:`~repro.qindb.records.scan_frames`)."""
        self.flush()
        unit = self._unit
        return scan_frames(unit.read_many([(0, unit.size)])[0], self.page_size)

    def flush(self) -> None:
        """Force any buffered partial page onto flash."""
        self._unit.flush()

    def erase(self) -> None:
        """Erase the segment's blocks, returning them to the device pool."""
        self._unit.erase()


class _FileUnit:
    """An AOF backing store on the *conventional* filesystem path.

    Used by the block-alignment ablation: same append-only access pattern
    as :class:`~repro.ssd.native.NativeUnit`, but through the FTL, so
    mid-page appends cost read-modify-writes and the device GC migrates
    pages.  The interface mirrors NativeUnit.
    """

    def __init__(self, fs, tag: str) -> None:
        from repro.ssd.files import BlockFileSystem, SSDFile  # local: no cycle

        assert isinstance(fs, BlockFileSystem)
        self._fs = fs
        self.tag = tag
        self._file: SSDFile = fs.create(f"aof-{tag}")

    @property
    def size(self) -> int:
        return self._file.size

    @property
    def page_size(self) -> int:
        return self._fs.page_size

    @property
    def occupied_bytes(self) -> int:
        return self._file.page_count * self._fs.page_size

    def append_many(self, chunks) -> int:
        """No native coalescing through the FTL: one append per frame
        (the chunks are frames' head and body pieces, in pairs)."""
        start = self._file.size
        pieces = iter(chunks)
        for head in pieces:
            self._file.append(head + next(pieces))
        return start

    def read_many(self, ranges) -> List[List[bytes]]:
        """No coalescing through the FTL either: one read per range."""
        return [[self._file.read(offset, length)] for offset, length in ranges]

    def flush(self) -> None:
        """Write-through already; nothing is buffered."""

    def erase(self) -> None:
        self._fs.delete(self._file.name)

    def discard_unprogrammed(self) -> None:
        """Write-through: a crash loses nothing beyond the memtable."""


class AofManager:
    """The chain of AOF segments behind one QinDB instance.

    ``backend`` selects the write path: ``"native"`` (default) is the
    paper's block-aligned native-interface path; ``"filesystem"`` routes
    the same append-only segments through the conventional FTL-backed
    filesystem — the ablation showing why the paper bothers with the
    native interface.
    """

    def __init__(
        self,
        device: SimulatedSSD,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        backend: str = "native",
    ) -> None:
        if segment_bytes < device.geometry.block_size:
            raise StorageError(
                f"segment size {segment_bytes} smaller than one erase "
                f"block ({device.geometry.block_size})"
            )
        if backend not in ("native", "filesystem"):
            raise StorageError(f"unknown AOF backend {backend!r}")
        self.device = device
        self.segment_bytes = segment_bytes
        self.backend = backend
        self._native = NativeBlockInterface(device)
        self._fs = None
        if backend == "filesystem":
            from repro.ssd.files import BlockFileSystem
            from repro.ssd.ftl import FlashTranslationLayer

            self._fs = BlockFileSystem(FlashTranslationLayer(device))
        self._segments: Dict[int, AofSegment] = {}
        self._next_id = 0
        self._active: AofSegment | None = None
        #: total payload bytes ever appended (the engine's disk-write side
        #: of software write amplification)
        self.bytes_appended = 0

    # ------------------------------------------------------------------
    @property
    def segments(self) -> List[AofSegment]:
        """Live segments in id order."""
        return [self._segments[i] for i in sorted(self._segments)]

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    @property
    def active_segment_id(self) -> int | None:
        """Id of the segment currently receiving appends."""
        return self._active.segment_id if self._active is not None else None

    def segment(self, segment_id: int) -> AofSegment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise StorageError(f"no such AOF segment: {segment_id}") from None

    @property
    def disk_used_bytes(self) -> int:
        """Block-granular footprint of all live segments."""
        return sum(s.occupied_bytes for s in self._segments.values())

    # ------------------------------------------------------------------
    def append_frames(
        self, heads: Sequence[bytes], bodies: Sequence[bytes]
    ) -> Tuple[List[RecordLocation], List[Tuple[int, int]]]:
        """Append frames (``heads[i]`` then ``bodies[i]``) back-to-back,
        rolling segments as they fill.

        The AOF's one write shape (puts, tombstones, ``RETIRE`` frames,
        GC moves).  Frames land in input order; within one segment their
        full pages coalesce into multi-page device programs.  Segment
        split points are those of appending the frames in batches of one.
        Returns the frames' locations and one ``(segment_id, nbytes)`` per
        segment written — what the GC table accounts.
        """
        locations: List[RecordLocation] = []
        appended: List[Tuple[int, int]] = []
        while len(locations) < len(bodies):
            segment = self._active
            if segment is None or segment.is_full:
                segment = self._open_segment()
            done = len(locations)
            accepted, nbytes = segment.append_frames(
                heads[done:] if done else heads,
                bodies[done:] if done else bodies,
            )
            self.bytes_appended += nbytes
            appended.append((segment.segment_id, nbytes))
            locations += accepted
        return locations, appended

    def read_values(self, locations: List[RecordLocation]) -> List[bytes]:
        """Read a batch of verified values, grouped per owning segment.

        Locations bucket by segment (visited in id order, so the device
        charge sequence is deterministic) and each segment serves its
        share as one coalesced :meth:`AofSegment.read_values`; values
        return in input order.  A batch inside one segment (all but ~0.2%
        of the benchmark's reads) goes to it whole: the same read.
        """
        for location in locations:
            if location[0] != locations[0][0]:
                break
        else:  # at most one segment: it reads the whole batch
            if locations:
                return self.segment(locations[0][0]).read_values(locations)
        by_segment: Dict[int, List[RecordLocation]] = {}
        for location in locations:
            by_segment.setdefault(location[0], []).append(location)
        found: Dict[RecordLocation, bytes] = {}
        for segment_id in sorted(by_segment):
            share = by_segment[segment_id]
            found.update(zip(share, self.segment(segment_id).read_values(share)))
        return list(map(found.__getitem__, locations))

    def flush(self) -> None:
        """Flush the active segment's partial page."""
        if self._active is not None:
            self._active.flush()

    def seal_active(self) -> None:
        """Close the active segment to appends: the next one opens a
        fresh segment.  Recovery's answer to a torn tail — flash cannot
        take the bytes back, and a frame written behind them would be
        read as the torn frame's body."""
        self._active = None

    def drop_segment(self, segment_id: int) -> None:
        """Erase a segment and forget it (the GC's final step)."""
        segment = self._segments.pop(segment_id)
        if segment is self._active:
            self._active = None
        segment.erase()

    # ------------------------------------------------------------------
    def _open_segment(self) -> AofSegment:
        if self._active is not None:
            # Close out the previous active segment at a page boundary.
            self._active.flush()
        segment_id = self._next_id
        self._next_id += 1
        if self._fs is not None:
            unit = _FileUnit(self._fs, tag=str(segment_id))
        else:
            unit = self._native.open_unit(tag=f"aof-{segment_id}")
        segment = AofSegment(segment_id, unit, self.segment_bytes)
        self._segments[segment_id] = segment
        self._active = segment
        return segment
