"""Slices: the unit of index transmission.

The build data center "keeps sending slices of index data in GBs every
hour"; a slice here is a checksummed batch of entries of one index kind.
The serialization is deterministic, the CRC is computed over the payload,
and intermediate relay nodes re-verify it (paper Section 3, "Failures in
Transmission").
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.bifrost.signature import checksum
from repro.errors import ChecksumMismatchError, ConfigError
from repro.indexing.types import IndexDataset, IndexEntry, IndexKind

_ENTRY_HEADER = struct.Struct("<HlB")  # key_len, value_len (-1 = dedup), kind

# Hoisted kind<->wire-index maps: the per-entry `list(IndexKind)` +
# O(kinds) `.index()` lookup dominated serialize/deserialize profiles.
KIND_TO_INDEX = {kind: index for index, kind in enumerate(IndexKind)}
INDEX_TO_KIND = tuple(IndexKind)


def serialize_entries(entries: List[IndexEntry]) -> bytes:
    """Deterministic wire encoding of a slice's entries."""
    parts: List[bytes] = []
    pack = _ENTRY_HEADER.pack
    kind_index = KIND_TO_INDEX
    for entry in entries:
        value = entry.value
        parts.append(
            pack(
                len(entry.key),
                -1 if value is None else len(value),
                kind_index[entry.kind],
            )
        )
        parts.append(entry.key)
        if value is not None:
            parts.append(value)
    return b"".join(parts)


def deserialize_entries(payload: bytes) -> Iterator[IndexEntry]:
    """Decode the wire encoding back into entries."""
    kinds = INDEX_TO_KIND
    offset = 0
    while offset < len(payload):
        key_len, value_len, kind_index = _ENTRY_HEADER.unpack_from(payload, offset)
        offset += _ENTRY_HEADER.size
        key = payload[offset : offset + key_len]
        offset += key_len
        if value_len < 0:
            value = None
        else:
            value = payload[offset : offset + value_len]
            offset += value_len
        yield IndexEntry(kinds[kind_index], bytes(key), value)


@dataclass(slots=True)
class Slice:
    """One transmission unit: entries of a single kind, checksummed."""

    slice_id: str
    version: int
    kind: IndexKind
    entries: List[IndexEntry]
    payload: bytes
    crc: int
    #: simulated time the slice becomes available at the build DC
    available_at: float = 0.0
    #: compressed wire stream (:mod:`repro.bifrost.encoding`); when set,
    #: *this* is what travels — size accounting, the CRC, and corruption
    #: all apply to the wire bytes, and ingestion decodes back to the
    #: logical entries
    wire: Optional[bytes] = None
    _corrupted: bool = field(default=False, repr=False)
    #: (payload, wire) as they were before :meth:`corrupt` flipped bytes,
    #: so :meth:`clean_copy` retransmits the pristine representation
    _pristine: Optional[tuple] = field(default=None, repr=False)

    @classmethod
    def pack(
        cls,
        slice_id: str,
        version: int,
        kind: IndexKind,
        entries: List[IndexEntry],
        available_at: float = 0.0,
    ) -> "Slice":
        payload = serialize_entries(entries)
        return cls(
            slice_id=slice_id,
            version=version,
            kind=kind,
            entries=entries,
            payload=payload,
            crc=checksum(payload),
            available_at=available_at,
        )

    @property
    def payload_bytes(self) -> int:
        """Logical serialized size — what ingestion must reproduce."""
        return len(self.payload)

    @property
    def wire_bytes(self) -> int:
        """Bytes that actually travel (compressed stream when encoded)."""
        return len(self.payload) if self.wire is None else len(self.wire)

    @property
    def size_bytes(self) -> int:
        """Wire size of the slice, as the transport charges it."""
        return self.wire_bytes + 64  # slice header + checksum framing

    def verify(self) -> None:
        """Recompute the checksum; raises on mismatch (a relay's job).

        The CRC covers whatever representation travels: the compressed
        wire stream when one is attached, the raw payload otherwise —
        so a wire-encoded slice damaged in flight is caught *before*
        decompression ever runs.
        """
        data = self.payload if self.wire is None else self.wire
        if self._corrupted or checksum(data) != self.crc:
            raise ChecksumMismatchError(f"slice {self.slice_id} failed its CRC")

    def corrupt(self) -> None:
        """Failure injection: the transported bytes were damaged.

        Flips a real byte in the travelling representation (the wire
        stream when encoded, else the payload).  The pristine bytes are
        remembered, so ``clean_copy`` still produces pristine
        retransmissions.
        """
        if self._pristine is None:
            self._pristine = (self.payload, self.wire)
        data = self.payload if self.wire is None else self.wire
        if data:
            middle = len(data) // 2
            damaged = (
                data[:middle]
                + bytes([data[middle] ^ 0xFF])
                + data[middle + 1 :]
            )
            if self.wire is None:
                self.payload = damaged
            else:
                self.wire = damaged
        self._corrupted = True

    def clean_copy(self) -> "Slice":
        """A pristine retransmission of this slice from the source."""
        payload, wire = (
            (self.payload, self.wire)
            if self._pristine is None
            else self._pristine
        )
        return Slice(
            slice_id=self.slice_id,
            version=self.version,
            kind=self.kind,
            entries=self.entries,
            payload=payload,
            crc=self.crc,
            available_at=self.available_at,
            wire=wire,
        )


class Slicer:
    """Packs a dataset's entries into bounded-size slices per kind."""

    def __init__(self, target_slice_bytes: int = 4 * 1024 * 1024) -> None:
        if target_slice_bytes < 1024:
            raise ConfigError(
                f"target_slice_bytes too small: {target_slice_bytes}"
            )
        self.target_slice_bytes = target_slice_bytes

    def make_slices(self, dataset: IndexDataset) -> List[Slice]:
        """Split each kind's entries into slices of ~target size."""
        slices: List[Slice] = []
        for kind in IndexKind:
            batch: List[IndexEntry] = []
            batch_bytes = 0
            sequence = 0
            for entry in dataset.of_kind(kind):
                batch.append(entry)
                batch_bytes += entry.wire_bytes
                if batch_bytes >= self.target_slice_bytes:
                    slices.append(
                        self._pack(dataset.version, kind, sequence, batch)
                    )
                    batch, batch_bytes = [], 0
                    sequence += 1
            if batch:
                slices.append(self._pack(dataset.version, kind, sequence, batch))
        return slices

    def _pack(
        self,
        version: int,
        kind: IndexKind,
        sequence: int,
        entries: List[IndexEntry],
    ) -> Slice:
        slice_id = f"v{version}-{kind.value}-{sequence:05d}"
        return Slice.pack(slice_id, version, kind, list(entries))
