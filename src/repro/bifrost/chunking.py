"""Chunk-level delta deduplication — the finer-grained extension.

The paper's deduplicator is all-or-nothing: a value that changed by one
term ships in full.  Its related-work section points at rsync and delta
compression [51, 52] as the finer alternative.  This module implements
it: values are split with **content-defined chunking** (a Gear rolling
hash, as in modern dedup systems), and only chunks the destination has
not seen travel the wire; unchanged chunks are referenced by signature.

Content-defined boundaries make the chunking insertion-stable: editing
the middle of a document only changes the chunks it touches, so a
partially modified value still deduplicates most of its bytes — the case
where whole-value dedup saves nothing.

Wire format of a delta-encoded value: a *recipe* (ordered chunk
signatures) plus the payload bytes of chunks the receiver lacks.  The
receiving store keeps a chunk store keyed by signature and reassembles
values on arrival, so the storage layer (QinDB/Mint) is untouched.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bifrost.signature import SIGNATURE_BYTES, signature
from repro.bifrost.slices import INDEX_TO_KIND, KIND_TO_INDEX
from repro.errors import ConfigError, CorruptionError
from repro.indexing.types import IndexDataset, IndexEntry, IndexKind

# 256 pseudo-random 64-bit gear values, generated deterministically.
_GEAR: List[int] = []
_state = 0x9E3779B97F4A7C15
for _ in range(256):
    _state = (_state * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
    _GEAR.append(_state)

_MASK_64 = 2**64 - 1


def chunk_boundaries(
    data: bytes, average_bytes: int = 512, min_bytes: int = 64, max_bytes: int = 4096
) -> Iterator[Tuple[int, int]]:
    """Yield (start, end) of content-defined chunks covering ``data``.

    A boundary is declared where the Gear rolling hash has its top
    ``log2(average_bytes)`` bits zero, giving chunks of ~``average_bytes``
    on random input, clamped to [min_bytes, max_bytes].
    """
    if min_bytes < 1 or not min_bytes <= average_bytes <= max_bytes:
        raise ConfigError(
            f"need 1 <= min <= average <= max, got "
            f"{min_bytes}/{average_bytes}/{max_bytes}"
        )
    mask = (average_bytes - 1) << (64 - average_bytes.bit_length() + 1)
    start = 0
    length = len(data)
    while start < length:
        end = min(start + max_bytes, length)
        cut = end
        hash_value = 0
        position = start
        for position in range(start, end):
            hash_value = ((hash_value << 1) + _GEAR[data[position]]) & _MASK_64
            if position - start + 1 >= min_bytes and (hash_value & mask) == 0:
                cut = position + 1
                break
        yield (start, cut)
        start = cut


def chunk_value(data: bytes, average_bytes: int = 512) -> List[bytes]:
    """Split ``data`` into content-defined chunks."""
    return [data[s:e] for s, e in chunk_boundaries(data, average_bytes)]


@dataclass
class DeltaEncodedValue:
    """A value expressed as a chunk recipe plus the missing chunk bytes."""

    #: ordered signatures reconstructing the value
    recipe: List[bytes]
    #: signature -> payload for chunks the receiver did not have
    new_chunks: Dict[bytes, bytes]

    @property
    def wire_bytes(self) -> int:
        """Bytes this encoding puts on the network."""
        payload = sum(len(chunk) for chunk in self.new_chunks.values())
        return len(self.recipe) * SIGNATURE_BYTES + payload + 8


@dataclass
class ChunkDedupResult:
    """Savings accounting for one dataset pass."""

    dataset: IndexDataset
    encodings: Dict[Tuple[IndexKind, bytes], DeltaEncodedValue]
    total_entries: int = 0
    unchanged_entries: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    @property
    def bandwidth_saving_ratio(self) -> float:
        if self.bytes_before == 0:
            return 0.0
        return (self.bytes_before - self.bytes_after) / self.bytes_before


class ChunkedDeduplicator:
    """Sender side: tracks which chunk signatures the receivers hold."""

    def __init__(self, average_chunk_bytes: int = 512) -> None:
        self.average_chunk_bytes = average_chunk_bytes
        self._known_signatures: set[bytes] = set()
        #: per-key whole-value signature of the version being processed
        #: and of the one before it, to short-circuit unchanged values —
        #: against the immediate predecessor only (see
        #: :meth:`repro.bifrost.dedup.Deduplicator.process`)
        self._value_signatures: Dict[Tuple[IndexKind, bytes], bytes] = {}
        self._previous_signatures: Dict[Tuple[IndexKind, bytes], bytes] = {}
        self._version: Optional[int] = None

    @property
    def tracked_chunks(self) -> int:
        return len(self._known_signatures)

    def process(self, dataset: IndexDataset) -> ChunkDedupResult:
        """Delta-encode every entry against the chunks already shipped.

        Unchanged values are forwarded value-less (exactly the paper's
        whole-value dedup); changed values ship a recipe plus only their
        novel chunks.
        """
        result = ChunkDedupResult(
            dataset=IndexDataset(version=dataset.version), encodings={}
        )
        for kind in IndexKind:
            self.process_entries(dataset.of_kind(kind), result)
        return result

    def process_entries(self, entries, result: ChunkDedupResult) -> None:
        """Stream ``entries`` through the deduplicator into ``result``.

        The streaming form of :meth:`process`: callers iterate entries
        straight out of the source dataset (no per-kind ``IndexDataset``
        copy) and accumulate into one shared result across kinds.
        Deduplicated output lands in ``result.dataset``; precomputed
        entry signatures (``entry.signature``) are honoured.
        """
        output = result.dataset
        if output.version != self._version:
            self._previous_signatures = self._value_signatures
            self._value_signatures = {}
            self._version = output.version
        previous = self._previous_signatures
        for entry in entries:
            if entry.value is None:
                raise ConfigError("chunked dedup input must carry values")
            result.total_entries += 1
            result.bytes_before += entry.wire_bytes
            store_key = (entry.kind, entry.key)
            value_signature = entry.signature or signature(entry.value)
            self._value_signatures[store_key] = value_signature
            if previous.get(store_key) == value_signature:
                stripped = entry.deduplicated()
                output.add(stripped)
                result.unchanged_entries += 1
                result.bytes_after += stripped.wire_bytes
                continue

            recipe: List[bytes] = []
            new_chunks: Dict[bytes, bytes] = {}
            for chunk in chunk_value(entry.value, self.average_chunk_bytes):
                chunk_signature = signature(chunk)
                recipe.append(chunk_signature)
                if chunk_signature not in self._known_signatures:
                    new_chunks[chunk_signature] = chunk
                    self._known_signatures.add(chunk_signature)
            encoding = DeltaEncodedValue(recipe=recipe, new_chunks=new_chunks)
            result.encodings[store_key] = encoding
            output.add(entry)  # the full entry still rides locally...
            # ...but the wire carries only the delta encoding.
            result.bytes_after += len(entry.key) + encoding.wire_bytes


class ChunkStore:
    """Receiver side: signature -> chunk bytes, with reassembly.

    Chunks are reference-counted by the recipes that use them, so a
    destination can release a dropped version's recipes and reclaim the
    chunks no surviving version references.
    """

    def __init__(self) -> None:
        self._chunks: Dict[bytes, bytes] = {}
        self._refs: Dict[bytes, int] = {}

    def __len__(self) -> int:
        return len(self._chunks)

    @property
    def stored_bytes(self) -> int:
        return sum(len(chunk) for chunk in self._chunks.values())

    def absorb(self, encoding: DeltaEncodedValue) -> bytes:
        """Store the encoding's new chunks and reassemble the value.

        Every signature in the recipe takes a reference, keeping its
        chunk alive until :meth:`release` drops the recipe.
        """
        for chunk_signature, chunk in encoding.new_chunks.items():
            if signature(chunk) != chunk_signature:
                raise CorruptionError("chunk payload does not match signature")
            self._chunks[chunk_signature] = chunk
        try:
            parts = [
                self._chunks[chunk_signature]
                for chunk_signature in encoding.recipe
            ]
        except KeyError as missing:
            raise CorruptionError(
                f"recipe references unknown chunk {missing}"
            ) from None
        for chunk_signature in encoding.recipe:
            self._refs[chunk_signature] = self._refs.get(chunk_signature, 0) + 1
        return b"".join(parts)

    def release(self, recipe: List[bytes]) -> int:
        """Drop one recipe's references; returns chunks reclaimed."""
        reclaimed = 0
        for chunk_signature in recipe:
            remaining = self._refs.get(chunk_signature, 0) - 1
            if remaining > 0:
                self._refs[chunk_signature] = remaining
            else:
                self._refs.pop(chunk_signature, None)
                if self._chunks.pop(chunk_signature, None) is not None:
                    reclaimed += 1
        return reclaimed


# ----------------------------------------------------------------------
# Wire format for delta-encoded slices
# ----------------------------------------------------------------------

_DELTA_ENTRY = struct.Struct("<HBBLL")  # key_len, kind, mode, recipe_n, new_n
_DELTA_CHUNK = struct.Struct("<L")  # chunk byte length
_MODE_UNCHANGED = 0
_MODE_DELTA = 1


def serialize_delta_entries(
    entries: List[IndexEntry],
    encodings: Dict[Tuple[IndexKind, bytes], DeltaEncodedValue],
) -> bytes:
    """Encode a slice's entries as the delta wire stream.

    An entry with ``value is None`` ships as an *unchanged* marker; an
    entry with a value must have a matching encoding and ships as its
    recipe plus novel chunks.
    """
    kind_index = KIND_TO_INDEX
    parts: List[bytes] = []
    for entry in entries:
        if entry.value is None:
            parts.append(
                _DELTA_ENTRY.pack(
                    len(entry.key), kind_index[entry.kind], _MODE_UNCHANGED, 0, 0
                )
            )
            parts.append(entry.key)
            continue
        encoding = encodings[(entry.kind, entry.key)]
        parts.append(
            _DELTA_ENTRY.pack(
                len(entry.key),
                kind_index[entry.kind],
                _MODE_DELTA,
                len(encoding.recipe),
                len(encoding.new_chunks),
            )
        )
        parts.append(entry.key)
        parts.extend(encoding.recipe)
        for chunk_signature, chunk in encoding.new_chunks.items():
            parts.append(chunk_signature)
            parts.append(_DELTA_CHUNK.pack(len(chunk)))
            parts.append(chunk)
    return b"".join(parts)


def deserialize_delta_entries(
    payload: bytes,
) -> Iterator[Tuple[IndexKind, bytes, Optional["DeltaEncodedValue"]]]:
    """Decode the delta wire stream: (kind, key, encoding-or-None)."""
    kinds = INDEX_TO_KIND
    offset = 0
    while offset < len(payload):
        key_len, kind_index, mode, recipe_count, new_count = (
            _DELTA_ENTRY.unpack_from(payload, offset)
        )
        offset += _DELTA_ENTRY.size
        key = bytes(payload[offset : offset + key_len])
        offset += key_len
        if mode == _MODE_UNCHANGED:
            yield kinds[kind_index], key, None
            continue
        recipe = []
        for _ in range(recipe_count):
            recipe.append(bytes(payload[offset : offset + SIGNATURE_BYTES]))
            offset += SIGNATURE_BYTES
        new_chunks: Dict[bytes, bytes] = {}
        for _ in range(new_count):
            chunk_signature = bytes(payload[offset : offset + SIGNATURE_BYTES])
            offset += SIGNATURE_BYTES
            (chunk_len,) = _DELTA_CHUNK.unpack_from(payload, offset)
            offset += _DELTA_CHUNK.size
            new_chunks[chunk_signature] = bytes(
                payload[offset : offset + chunk_len]
            )
            offset += chunk_len
        yield kinds[kind_index], key, DeltaEncodedValue(recipe, new_chunks)
