"""Binary framing of AOF records (frame v2).

Every datum QinDB persists is one framed record of two parts::

    magic(1) sequence(8) crc(4) | type(1) key_len(2) value_len(4) version(8)
                                  key value

Right of the bar is the record **body**: a pure function of ``(type,
key, version, value)``, so it is the same bytes on every replica of the
record, built once for the fleet and one object on every replica's
flash.  Left of it is the 13-byte **head**, the only part that depends
on the engine: a pure function of its sequence and the body checksum,
so replicas framing a batch at the same sequences share it too
(:meth:`Bodies.frames`).  Heads and bodies go down, and come back from
the flash to be verified, as two pieces never joined.  The fixed fields are
28 bytes, what the historical one-struct header took, so no stored
length, page count or device charge differs from it.

* ``magic`` is a non-zero constant, so page padding (zero bytes to the
  page boundary) is unambiguous in a scan, and a zeroed magic is damage;
* ``sequence`` is the engine-wide logical sequence number of the
  mutation.  GC re-appends a frame verbatim, so a record keeps its
  *original* sequence and the recovery scan can order mutations
  correctly even though collection physically moves old records past
  newer ones;
* ``crc`` is ``crc32(sequence_le8, crc32(body))`` — the CRC-32 of the
  byte stream ``body ‖ sequence``.  It covers every byte of the frame
  but ``magic`` and itself, the two length fields included, so
  transmission or media corruption surfaces as
  :class:`~repro.errors.CorruptionError` instead of silent bad data.
  ``crc32(body)``, the **body checksum**, is computed with the body
  (:class:`Bodies`); framing then costs one 8-byte CRC update and one
  head per record at each distinct sequence, and Mint's integrity index
  keeps the same number as the record's Merkle leaf;
* a ``PUT_DEDUP`` record is the paper's value-less pair: the key arrived
  with its value removed by Bifrost's deduplication;
* a ``DELETE`` record is a tombstone — the paper applies deletes in memory
  only, but persisting nothing for them would lose them across recovery,
  so recovery-relevant deletes are framed like everything else;
* a ``RETIRE`` record evicts a whole version: empty key, no value, and
  the retired ``version``.  It stands for a tombstone on every item of
  that version with a lower sequence, so evicting a version of any size
  writes one 28-byte frame.

There is one format and one reader of a segment, the walker
:func:`scan_frames`: GC and recovery walk a unit's pieces, so a moved
frame keeps its head and body objects.
"""

from __future__ import annotations

import enum
import struct
import zlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, is_
from typing import (
    Callable, Hashable, Iterable, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple, TypeVar,
)

from repro.errors import CorruptionError, StorageError, TruncatedRecordError

T = TypeVar("T")

MAGIC = 0xD1
#: the per-engine head: magic, sequence, crc
_HEAD = struct.Struct("<BQL")
#: the body's fixed fields: type, key_len, value_len, version
_BODY_HEAD = struct.Struct("<BHLQ")
#: the head's sequence field alone — the bytes the frame CRC appends
_SEQUENCE = struct.Struct("<Q")
HEAD_SIZE = _HEAD.size
_BODY_FIXED = _BODY_HEAD.size
HEADER_SIZE = HEAD_SIZE + _BODY_FIXED
#: where ``sequence`` sits in a frame
_SEQUENCE_AT = slice(1, 1 + _SEQUENCE.size)

MAX_KEY_LEN = 0xFFFF
MAX_VALUE_LEN = 0xFFFFFFFF


class RecordType(enum.IntEnum):
    """Kinds of framed records in an AOF."""

    PUT_VALUE = 1  # complete key-value pair
    PUT_DEDUP = 2  # deduplicated pair: key + version, value removed upstream
    DELETE = 3  # tombstone for (key, version)
    RETIRE = 4  # empty key: every older record of the version is deleted


@dataclass(frozen=True, slots=True)
class Record:
    """One decoded AOF record."""

    type: RecordType
    key: bytes
    version: int
    value: bytes = b""
    sequence: int = 0

    def __post_init__(self) -> None:
        if len(self.key) > MAX_KEY_LEN:
            raise StorageError(f"key too long: {len(self.key)} bytes")
        if len(self.value) > MAX_VALUE_LEN:
            raise StorageError(f"value too long: {len(self.value)} bytes")
        if self.version < 0 or self.version > 0xFFFFFFFFFFFFFFFF:
            raise StorageError(f"version out of range: {self.version}")
        if self.sequence < 0 or self.sequence > 0xFFFFFFFFFFFFFFFF:
            raise StorageError(f"sequence out of range: {self.sequence}")
        if self.type is not RecordType.PUT_VALUE and self.value:
            raise StorageError(f"{self.type.name} records carry no value")

    @property
    def encoded_size(self) -> int:
        """Bytes this record occupies on disk."""
        return HEADER_SIZE + len(self.key) + len(self.value)


_VALUE_TYPE = int(RecordType.PUT_VALUE)
_DEDUP_TYPE = int(RecordType.PUT_DEDUP)
_TYPE_NAMES = {int(record_type): record_type.name for record_type in RecordType}
#: all 28 fixed bytes in one unpack, for the readers: magic, sequence,
#: crc, type, key_len, value_len, version
_HEADER = struct.Struct("<BQLBHLQ")


# ----------------------------------------------------------------------
# Writing: bodies once per record, heads once per replica
# ----------------------------------------------------------------------
def build_bodies(
    types: Iterable[int],
    keys: Sequence[bytes],
    versions: Iterable[int],
    values: Iterable[bytes],
) -> Tuple[List[bytes], List[int]]:
    """Record bodies and their checksums from parallel field columns.

    The one place a body is assembled and the one CRC pass over key and
    value.  Field-range violations (key over 64 KiB, version outside 64
    bits, ...) surface as :class:`StorageError` via the struct limits.
    """
    try:
        heads = map(_BODY_HEAD.pack, types, map(len, keys), map(len, values), versions)
        bodies = list(map(b"".join, zip(heads, keys, values)))
    except struct.error as exc:
        raise StorageError(f"record field out of range: {exc}") from None
    return bodies, list(map(zlib.crc32, bodies))


def frame_heads(sequences: range, checksums: Sequence[int]) -> List[bytes]:
    """The heads that frame bodies with ``checksums`` under ``sequences``:
    what a replica does per record, one CRC update over the 8 sequence
    bytes seeded with the shared body checksum, and one 13-byte head."""
    crcs = map(zlib.crc32, map(_SEQUENCE.pack, sequences), checksums)
    return list(map(_HEAD.pack, repeat(MAGIC), sequences, crcs))


class Frames(NamedTuple):
    """Records framed for the AOF, as one append takes them.

    ``pieces`` holds each frame's head, then its body; ``lengths`` each
    frame's bytes, and ``starts`` where each begins relative to the
    first, with one more entry for the total (both ``array('q')``, so an
    append cuts its runs by bisection and the memtable copies slices).
    A framed put batch also carries its ``sequences`` column.  A flash
    unit keeps ``pieces`` and ``starts`` themselves as the extent of
    each run appended (:meth:`~repro.ssd.native.NativeUnit.append_frames`),
    so neither may change once appended.
    """

    pieces: List[bytes]
    lengths: array
    starts: array
    sequences: Optional[array] = None

    @classmethod
    def of(cls, heads: Sequence[bytes], bodies: Sequence[bytes]) -> "Frames":
        """Frame ``i`` is ``heads[i]`` then ``bodies[i]``."""
        pieces = [b""] * (2 * len(bodies))
        pieces[::2], pieces[1::2] = heads, bodies
        lengths = array("q", map(add, map(len, heads), map(len, bodies)))
        return cls(pieces, lengths, array("q", accumulate(lengths, initial=0)))


class _Sharing:
    """What every holder of an object would derive from it alike, built
    by the first holder to ask and kept in its ``_shared`` dict."""

    __slots__ = ()

    def shared(self, key: Hashable, build: Callable[..., T]) -> T:
        """``build(self)``, made by the first holder to ask under ``key``
        and the same object for every later one.  ``key`` must name
        everything ``build`` reads besides this object, so holders that
        ask alike are handed alike; it is kept with the result, and the
        result is shared, not copied."""
        found = self._shared.get(key)
        if found is None:
            found = self._shared[key] = build(self)
        return found


class Bodies(_Sharing, tuple):
    """A put batch — the ``(key, version, value)`` triples themselves —
    carrying each record's body, built once.

    It *is* the sequence of triples, so every layer that takes a batch
    takes this and iterates, indexes and measures it as one; a layer
    that frames records (:meth:`QinDB.put_batch
    <repro.qindb.engine.QinDB.put_batch>`) reads the columns beside
    them.  :meth:`of` is how a layer says "with bodies": a no-op on a
    batch that has them, the build on plain triples — so where the
    bodies were built changes who pays for them, never what is stored.

    Columns, one entry per triple: ``item_keys`` (the memtable's ``(key,
    version)`` tuples, shared by every replica that indexes the record),
    ``dedup`` (value-less, ``value is None``), ``bodies`` and
    ``checksums`` (``crc32(body)``: the frame CRC's seed *and* the
    integrity leaf).

    What every holder of the batch would build alike is built by the
    first and kept on the batch for the rest: a sub-batch per distinct
    index list (:meth:`take`), the frames per first sequence
    (:meth:`frames`: heads, pieces, sequence column; lengths and starts
    once for all sequences), and whatever a layer above derives from the
    batch alone (:meth:`shared`: the memtable's item columns, Mint's cut
    by group, the integrity tree).  A batch nobody shares builds each
    once, as before.
    """

    COLUMNS = ("item_keys", "dedup", "bodies", "checksums")

    @classmethod
    def of(cls, items: Sequence[Tuple[bytes, int, Optional[bytes]]]) -> "Bodies":
        """``items`` with bodies: itself if it has them, else built."""
        return items if isinstance(items, cls) else cls(items)

    def __new__(cls, items) -> "Bodies":
        self = tuple.__new__(cls, items)
        keys, versions, values = zip(*self) if self else ((), (), ())
        if not all(map(isinstance, keys, repeat(bytes))) or not all(keys):
            raise StorageError("key must be non-empty bytes")
        self.dedup = list(map(is_, values, repeat(None)))
        if True in self.dedup:
            types = [_DEDUP_TYPE if flag else _VALUE_TYPE for flag in self.dedup]
            values = [value or b"" for value in values]
        else:
            types = repeat(_VALUE_TYPE)
        self.bodies, self.checksums = build_bodies(types, keys, versions, values)
        self.item_keys = list(zip(keys, versions))
        self._takes, self._frames, self._shared = {}, {}, {}
        self._layout = None
        return self

    def take(self, indices: Sequence[int]) -> "Bodies":
        """The sub-batch at ``indices`` (ascending, distinct), sharing
        this batch's triples, key tuples and bodies.  Equal index lists
        get the same sub-batch, so its heads are framed once for every
        group in every data center that stores that share."""
        if len(indices) == len(self):
            return self
        key = array("q", indices).tobytes()
        taken = self._takes.get(key)
        if taken is None:
            taken = tuple.__new__(Bodies, [self[index] for index in indices])
            for name in self.COLUMNS:
                column = getattr(self, name)
                setattr(taken, name, [column[index] for index in indices])
            taken._takes, taken._frames, taken._shared = {}, {}, {}
            taken._layout = None
            self._takes[key] = taken
        return taken

    def frames(self, sequences: range) -> Frames:
        """This batch framed under ``sequences``: its heads
        (:func:`frame_heads`) interleaved with its bodies, and its
        sequence column.  Built by the first replica to frame the batch
        there, the same object for every later one.  A head is a pure
        function of its sequence and body checksum, and replicas that
        stored the same batches in the same order draw the same
        sequences; a replica whose sequences differ builds its own
        heads, pieces and sequence column, but shares the frame lengths
        and starts, which do not depend on the sequences."""
        framed = self._frames.get(sequences.start)
        if framed is None:
            if self._layout is None:
                lengths = array(
                    "q", map(HEAD_SIZE.__add__, map(len, self.bodies))
                )
                starts = array("q", accumulate(lengths, initial=0))
                self._layout = (lengths, starts)
            pieces = [b""] * (2 * len(self))
            pieces[::2] = frame_heads(sequences, self.checksums)
            pieces[1::2] = self.bodies
            framed = self._frames[sequences.start] = Frames(
                pieces, *self._layout, array("q", sequences)
            )
        return framed



def encode_frame(
    record_type: int, key: bytes, value: bytes, version: int, sequence: int
) -> bytes:
    """Serialize one record frame from its raw fields.

    A batch of one through :func:`build_bodies` and :func:`frame_heads`,
    the only writers of the format, head and body joined.  Nothing is
    validated beyond the struct limits (a :class:`StorageError`), so
    tests can frame what no engine would.
    """
    bodies, checksums = build_bodies([record_type], [key], [version], [value])
    try:
        return frame_heads(range(sequence, sequence + 1), checksums)[0] + bodies[0]
    except struct.error as exc:
        raise StorageError(f"record field out of range: {exc}") from None


def encode_record(record: Record) -> bytes:
    """Serialize a record to its on-disk framing."""
    return encode_frame(
        int(record.type), record.key, record.value, record.version,
        record.sequence,
    )


# ----------------------------------------------------------------------
# Reading: the same checks in the same order, wherever a frame lies
# ----------------------------------------------------------------------
def decode_record(buffer: bytes, offset: int = 0) -> Tuple[Record, int]:
    """Decode one record at ``offset``; returns (record, next_offset).

    Raises :class:`CorruptionError` on bad magic, truncation, or CRC
    mismatch.
    """
    if offset + HEADER_SIZE > len(buffer):
        raise TruncatedRecordError(
            f"truncated header at offset {offset} "
            f"(need {HEADER_SIZE}, have {len(buffer) - offset})"
        )
    magic, sequence, crc, rtype, key_len, value_len, version = (
        _HEADER.unpack_from(buffer, offset)
    )
    if magic != MAGIC:
        raise CorruptionError(f"bad magic 0x{magic:02x} at offset {offset}")
    key_start = offset + HEADER_SIZE
    body_end = key_start + key_len + value_len
    if body_end > len(buffer):
        raise TruncatedRecordError(
            f"truncated body at offset {offset}: record needs "
            f"{body_end - offset} bytes, {len(buffer) - offset} available"
        )
    frame = memoryview(buffer)[offset:body_end]
    if zlib.crc32(frame[_SEQUENCE_AT], zlib.crc32(frame[HEAD_SIZE:])) != crc:
        raise CorruptionError(f"CRC mismatch for record at offset {offset}")
    try:
        record_type = RecordType(rtype)
    except ValueError:
        raise CorruptionError(f"unknown record type {rtype} at {offset}") from None
    key = bytes(buffer[key_start : key_start + key_len])
    value = bytes(buffer[key_start + key_len : body_end])
    return Record(record_type, key, version, value, sequence), body_end


def _check_padding(run: bytes, offset: int) -> None:
    """Page padding is zero bytes all the way to the page boundary; a
    zero byte with anything else behind it is a damaged magic byte."""
    if run.count(0) != len(run):
        raise CorruptionError(f"bad magic 0x00 at offset {offset}")


def scan_records(
    buffer: bytes,
    page_size: Optional[int] = None,
    tolerate_torn_tail: bool = False,
) -> Iterator[Tuple[int, Record]]:
    """Yield ``(offset, record)`` for every record in a segment image.

    Zero bytes running to the next page boundary (with no ``page_size``,
    to the end) are page padding, skipped; a zero byte with anything else
    behind it is a damaged magic byte.

    With ``tolerate_torn_tail`` a truncated record at the very end of the
    buffer terminates the scan silently — a crash can catch the final
    record half-programmed, and recovery must treat that as end-of-log.
    Truncation anywhere else, or a CRC failure, still raises.
    """
    offset = 0
    length = len(buffer)
    while offset < length:
        if buffer[offset] == 0:
            boundary = (offset // page_size + 1) * page_size if page_size else length
            _check_padding(buffer[offset:boundary], offset)
            offset = boundary
            continue
        try:
            record, next_offset = decode_record(buffer, offset)
        except TruncatedRecordError:
            if tolerate_torn_tail:
                return
            raise
        yield offset, record
        offset = next_offset


#: ``(offset, end, type, key, version, sequence)`` of one verified frame
Frame = Tuple[int, int, int, bytes, int, int]


class FrameWalk(_Sharing, list):
    """A segment's verified frames in scan order, as :func:`scan_frames`
    returns them, carrying what holders of the walk derive from it alike.

    Replicas whose segments hold the same pieces share one walk
    (:meth:`~repro.qindb.aof.AofSegment.read_frames`), so what GC makes
    of it — which frames survive, the moved frames, their new locations
    — is made by the first and kept here for the rest (:meth:`shared`).
    """

    __slots__ = ("_shared",)

    def __init__(self, frames: Iterable[Frame] = ()) -> None:
        super().__init__(frames)
        self._shared: dict = {}


def decode_value(pieces: Sequence[bytes]) -> bytes:
    """Verify the frame held in ``pieces`` and return its value.

    The read path: a frame the unit hands back as its head and its body
    is checked as those two pieces, never stitched — the frame CRC is
    ``crc32(sequence, crc32(body))`` — and pieces of any other shape are
    joined and split at the head first.  Every check :func:`decode_record`
    makes, in its order and with its typed errors; no :class:`Record` is
    built and the key is never copied.
    """
    if len(pieces) == 2 and len(pieces[0]) == HEAD_SIZE:
        head, body = pieces
    else:
        frame = b"".join(pieces)
        head, body = frame[:HEAD_SIZE], frame[HEAD_SIZE:]
    body_len = len(body)
    if body_len < _BODY_FIXED:  # a short head leaves no body at all
        raise TruncatedRecordError(
            f"truncated header: {len(head) + body_len} bytes"
        )
    magic, _sequence, crc = _HEAD.unpack(head)
    rtype, key_len, value_len, _version = _BODY_HEAD.unpack_from(body)
    if magic != MAGIC:
        raise CorruptionError(f"bad magic 0x{magic:02x}")
    value_start = _BODY_FIXED + key_len
    end = value_start + value_len
    if end > body_len:
        raise TruncatedRecordError(
            f"truncated body: {HEAD_SIZE + body_len} of {HEAD_SIZE + end} bytes"
        )
    body_crc = zlib.crc32(body if end == body_len else memoryview(body)[:end])
    if zlib.crc32(head[_SEQUENCE_AT], body_crc) != crc:
        raise CorruptionError("CRC mismatch for record")
    if rtype not in _TYPE_NAMES:
        raise CorruptionError(f"unknown record type {rtype}")
    if value_len and rtype != _VALUE_TYPE:
        raise StorageError(f"{_TYPE_NAMES[rtype]} records carry no value")
    return body[value_start:end]


def scan_frames(
    pieces: Sequence[bytes], page_size: int
) -> Tuple[FrameWalk, List[bytes], List[bytes], int]:
    """The frames of a segment held as ``pieces``, their heads and
    bodies, and the bytes of a torn tail (a frame cut short by the end).

    The checks and typed errors of ``scan_records(b"".join(pieces),
    page_size, tolerate_torn_tail=True)``, in its order.  A frame whose
    head and body are whole pieces (as ``append_frames`` writes them) is
    returned as those objects, so a frame GC moves stays the one every
    replica shares; any other layout is cut from the pieces as bytes.
    Damage raises before the caller sees a frame: GC verifies, then mutates.
    """
    ends = list(accumulate(map(len, pieces)))
    length = ends[-1] if ends else 0

    def cut(start: int, stop: int) -> bytes:
        first = bisect_right(ends, start)
        begin = ends[first - 1] if first else 0
        joined = b"".join(pieces[first : bisect_left(ends, stop, first) + 1])
        return joined[start - begin : stop - begin]

    frames = FrameWalk()
    heads, bodies = [], []
    offset = index = 0
    while offset < length:
        while ends[index] <= offset:
            index += 1
        piece = pieces[index]
        at = offset - ends[index] + len(piece)
        if not piece[at]:
            boundary = (offset // page_size + 1) * page_size
            _check_padding(cut(offset, min(boundary, length)), offset)
            offset = boundary
            continue
        if offset + HEADER_SIZE > length:
            break  # torn header: end of log
        if not at and len(piece) == HEAD_SIZE and index + 1 < len(pieces):
            head, body = piece, pieces[index + 1]
        else:
            head, body = cut(offset, offset + HEAD_SIZE), b""
        magic, sequence, crc = _HEAD.unpack(head)
        if magic != MAGIC:
            raise CorruptionError(f"bad magic 0x{magic:02x} at offset {offset}")
        if len(body) < _BODY_FIXED:
            body = cut(offset + HEAD_SIZE, offset + HEADER_SIZE)
        rtype, key_len, value_len, version = _BODY_HEAD.unpack_from(body)
        end = offset + HEADER_SIZE + key_len + value_len
        if len(body) != end - offset - HEAD_SIZE:
            if end > length:
                break  # torn body: end of log
            body = cut(offset + HEAD_SIZE, end)
        if zlib.crc32(head[_SEQUENCE_AT], zlib.crc32(body)) != crc:
            raise CorruptionError(f"CRC mismatch for record at offset {offset}")
        if rtype not in _TYPE_NAMES:
            raise CorruptionError(f"unknown record type {rtype} at {offset}")
        if value_len and rtype != _VALUE_TYPE:
            raise StorageError(f"{_TYPE_NAMES[rtype]} records carry no value")
        key = body[_BODY_FIXED : _BODY_FIXED + key_len]
        frames.append((offset, end, rtype, key, version, sequence))
        heads.append(head)
        bodies.append(body)
        offset = end
    return frames, heads, bodies, max(length - offset, 0)
