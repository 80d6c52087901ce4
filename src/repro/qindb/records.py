"""Binary framing of AOF records.

Every datum QinDB persists is one framed record::

    magic(1) type(1) key_len(2) value_len(4) version(8) seq(8) crc32(4)
    key value

* ``magic`` is a non-zero constant, so page padding (zero bytes) inserted
  by the block-aligned writer is unambiguous during sequential recovery
  scans;
* ``seq`` is the engine-wide logical sequence number of the mutation.
  GC re-appends a record with its *original* sequence, so the recovery
  scan can order mutations correctly even though collection physically
  moves old records past newer ones;
* ``crc32`` covers header fields (except itself) plus key and value, so
  transmission or media corruption surfaces as
  :class:`~repro.errors.CorruptionError` instead of silent bad data;
* a ``PUT_DEDUP`` record is the paper's value-less pair: the key arrived
  with its value removed by Bifrost's deduplication;
* a ``DELETE`` record is a tombstone — the paper applies deletes in memory
  only, but persisting nothing for them would lose them across recovery,
  so recovery-relevant deletes are framed like everything else.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import CorruptionError, StorageError, TruncatedRecordError

MAGIC = 0xD1
#: magic, type, key_len, value_len, version, sequence, crc
_HEADER = struct.Struct("<BBHLQQL")
HEADER_SIZE = _HEADER.size

MAX_KEY_LEN = 0xFFFF
MAX_VALUE_LEN = 0xFFFFFFFF


class RecordType(enum.IntEnum):
    """Kinds of framed records in an AOF."""

    PUT_VALUE = 1  # complete key-value pair
    PUT_DEDUP = 2  # deduplicated pair: key + version, value removed upstream
    DELETE = 3  # tombstone for (key, version)


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

    @property
    def has_value(self) -> bool:
        """Whether the record stores an actual value field."""
        return self.type is RecordType.PUT_VALUE


#: the CRC's fixed-width prefix — identical bytes to the historical
#: ``bytes([type]) + version.to_bytes(8, "le") + sequence.to_bytes(8, "le")``
#: stream, packed in one struct call instead of three allocations
_CRC_PREFIX = struct.Struct("<BQQ")


def _crc(
    record_type: int, version: int, sequence: int, key: bytes, value: bytes
) -> int:
    crc = zlib.crc32(_CRC_PREFIX.pack(record_type, version, sequence))
    return zlib.crc32(value, zlib.crc32(key, crc)) & 0xFFFFFFFF


def encode_frame(
    record_type: int,
    key: bytes,
    value: bytes,
    version: int,
    sequence: int,
    # bound at def time: these run once per record on the hot path
    _pack_prefix=_CRC_PREFIX.pack,
    _pack_header=_HEADER.pack,
    _crc32=zlib.crc32,
    _join=b"".join,
) -> bytes:
    """Serialize one record frame from its raw fields.

    The batched-write hot path: byte-identical to
    ``encode_record(Record(...))`` without constructing (and validating)
    the dataclass per record.  Field-range violations the dataclass
    would have caught surface here as :class:`StorageError` via the
    struct pack limits, so callers see the same error type either way.
    """
    try:
        crc = _crc32(
            value, _crc32(key, _crc32(_pack_prefix(record_type, version, sequence)))
        ) & 0xFFFFFFFF
        return _join(
            (
                _pack_header(
                    MAGIC, record_type, len(key), len(value), version,
                    sequence, crc,
                ),
                key,
                value,
            )
        )
    except struct.error as exc:
        raise StorageError(f"record field out of range: {exc}") from None


def encode_record(record: Record) -> bytes:
    """Serialize a record to its on-disk framing."""
    return encode_frame(
        int(record.type), record.key, record.value, record.version,
        record.sequence,
    )


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
    magic, rtype, key_len, value_len, version, sequence, crc = (
        _HEADER.unpack_from(buffer, offset)
    )
    if magic != MAGIC:
        raise CorruptionError(f"bad magic 0x{magic:02x} at offset {offset}")
    body_start = offset + HEADER_SIZE
    body_end = body_start + key_len + value_len
    if body_end > len(buffer):
        raise TruncatedRecordError(
            f"truncated body at offset {offset}: record needs "
            f"{body_end - offset} bytes, {len(buffer) - offset} available"
        )
    key = bytes(buffer[body_start : body_start + key_len])
    value = bytes(buffer[body_start + key_len : body_end])
    if _crc(rtype, version, sequence, key, value) != crc:
        raise CorruptionError(f"CRC mismatch for record at offset {offset}")
    try:
        record_type = RecordType(rtype)
    except ValueError:
        raise CorruptionError(f"unknown record type {rtype} at {offset}") from None
    return Record(record_type, key, version, value, sequence), body_end


def scan_records(
    buffer: bytes,
    page_size: Optional[int] = None,
    tolerate_torn_tail: bool = False,
) -> Iterator[Tuple[int, Record]]:
    """Yield ``(offset, record)`` for every record in a segment image.

    Zero bytes where a record header should start are page padding from
    the block-aligned writer; when ``page_size`` is given the scan skips to
    the next page boundary and continues (as :func:`scan_frames` does).

    With ``tolerate_torn_tail`` a truncated record at the very end of the
    buffer terminates the scan silently — a crash can catch the final
    record half-programmed, and recovery must treat that as end-of-log.
    Truncation anywhere else, or a CRC failure, still raises.
    """
    offset = 0
    length = len(buffer)
    while offset < length:
        if buffer[offset] == 0:
            if page_size is None:
                return
            offset = (offset // page_size + 1) * page_size
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
_VALUE_TYPE = int(RecordType.PUT_VALUE)
_TYPE_NAMES = {int(record_type): record_type.name for record_type in RecordType}


def decode_value(buffer: bytes) -> bytes:
    """Verify the frame at the start of ``buffer``; return its value.

    The read path: every check :func:`decode_record` makes, in its order
    and with its typed errors, but no :class:`Record` is built and the
    key is never copied — the CRC is one call over a view of key+value,
    as in :func:`scan_frames`.
    """
    length = len(buffer)
    if length < HEADER_SIZE:
        raise TruncatedRecordError(f"truncated header: {length} bytes")
    magic, rtype, key_len, value_len, version, sequence, crc = (
        _HEADER.unpack_from(buffer)
    )
    if magic != MAGIC:
        raise CorruptionError(f"bad magic 0x{magic:02x}")
    value_start = HEADER_SIZE + key_len
    end = value_start + value_len
    if end > length:
        raise TruncatedRecordError(f"truncated body: {length} of {end} bytes")
    prefix_crc = zlib.crc32(_CRC_PREFIX.pack(rtype, version, sequence))
    if zlib.crc32(memoryview(buffer)[HEADER_SIZE:end], prefix_crc) != crc:
        raise CorruptionError("CRC mismatch for record")
    if rtype not in _TYPE_NAMES:
        raise CorruptionError(f"unknown record type {rtype}")
    if value_len and rtype != _VALUE_TYPE:
        raise StorageError(f"{_TYPE_NAMES[rtype]} records carry no value")
    return buffer[value_start:end]


def scan_frames(image: bytes, page_size: int) -> List[Frame]:
    """Verify every frame of a segment image; return their headers.

    The maintenance walk (GC, recovery): same checks and typed errors as
    ``scan_records(image, page_size, tolerate_torn_tail=True)``, but no
    :class:`Record` is built and no value is copied — key and value are
    contiguous in the frame, so the CRC is one call over a view of it.
    ``image[offset:end]`` is the frame verbatim.  The list is complete
    before the caller sees it: a corrupt image raises with nothing
    consumed, which is what lets GC verify before it mutates.
    """
    view = memoryview(image)
    length = len(image)
    unpack_header = _HEADER.unpack_from
    pack_prefix = _CRC_PREFIX.pack
    crc32 = zlib.crc32
    frames: List[Frame] = []
    add = frames.append
    offset = 0
    while offset < length:
        if image[offset] == 0:  # page padding
            offset = (offset // page_size + 1) * page_size
            continue
        key_start = offset + HEADER_SIZE
        if key_start > length:
            break  # torn header: end of log
        magic, rtype, key_len, value_len, version, sequence, crc = (
            unpack_header(image, offset)
        )
        if magic != MAGIC:
            raise CorruptionError(f"bad magic 0x{magic:02x} at offset {offset}")
        end = key_start + key_len + value_len
        if end > length:
            break  # torn body: end of log
        prefix_crc = crc32(pack_prefix(rtype, version, sequence))
        if crc32(view[key_start:end], prefix_crc) != crc:
            raise CorruptionError(f"CRC mismatch for record at offset {offset}")
        if rtype not in _TYPE_NAMES:
            raise CorruptionError(f"unknown record type {rtype} at {offset}")
        if value_len and rtype != _VALUE_TYPE:
            raise StorageError(f"{_TYPE_NAMES[rtype]} records carry no value")
        key = image[key_start : key_start + key_len]
        add((offset, end, rtype, key, version, sequence))
        offset = end
    return frames
