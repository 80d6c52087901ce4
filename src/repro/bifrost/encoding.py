"""Wire encoding: what dedup doesn't catch, delta + compression does.

Whole-value signature dedup (paper 2.2) removes *unchanged* values from
the wire, but a changed value still ships in full even when the change
touched a few of its term blocks.  This layer sits between the slicer
and the scheduler and rewrites each slice's payload for transmission:

* **delta vs predecessor** — a changed value is encoded as copy/literal
  ops against the predecessor version's value for the same key,
  identified by the predecessor's *signature* (so the receiver applies
  the delta only against provably identical base bytes);
* **varint packing** — per-entry headers, op lengths, and offsets are
  LEB128 varints instead of fixed-width struct fields;
* **group compression** — the packed stream is DEFLATE-compressed as one
  unit, catching the redundancy *across* a slice's entries that
  per-value encoding cannot see.

The :class:`~repro.bifrost.slices.Slice` keeps its logical ``payload``
(what ingestion must reproduce byte-for-byte) and gains ``wire`` — the
compressed stream that actually travels.  All transport byte accounting
(transmit delays, ``bytes_sent``, the monitor's congestion model) runs
on wire bytes; the receiving cluster decodes at ingest and the delivered
entries are byte-identical to the unencoded run.

Decode keeps a per-receiver base cache keyed by value signature, so
out-of-order arrival across versions (pipelined months) is safe: a delta
whose base has not landed yet raises
:class:`~repro.errors.WireBaseUnavailableError` and the cluster parks
the slice until the base decodes.

Encode/decode CPU is not simulated as kernel time (the encode happens in
the build DC's generation window, which already models the build cost);
instead both sides charge a deterministic modeled CPU account
(``encode_cpu_s`` / ``decode_cpu_s``) that the bandwidth bench reports
next to the bytes saved.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bifrost.signature import SIGNATURE_BYTES, checksum, signature
from repro.errors import WireBaseUnavailableError, WireCodecError
from repro.indexing.types import IndexEntry, IndexKind

#: per-entry wire modes
MODE_UNCHANGED = 0  # deduplicated marker: no value travels
MODE_FULL = 1  # full value (no usable base, or delta would not pay)
MODE_DELTA = 2  # copy/literal ops against a signature-matched base

#: anchor granularity for the delta matcher — matches the 64-byte term
#: blocks the synthetic builders compose values from
DELTA_BLOCK_BYTES = 64

#: DEFLATE level for the packed slice stream
COMPRESS_LEVEL = 6

#: modeled single-core codec throughputs (bytes/second) for the CPU
#: charge accounting; deterministic, so bench entries are reproducible
ENCODE_BYTES_PER_S = 400e6
DECODE_BYTES_PER_S = 1.2e9


# ----------------------------------------------------------------------
# varints
def append_varint(buf: bytearray, value: int) -> None:
    """LEB128-append a non-negative integer."""
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Read a LEB128 varint; returns ``(value, next_pos)``."""
    result = 0
    shift = 0
    try:
        while True:
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise WireCodecError("varint runs past the end of the stream")


# ----------------------------------------------------------------------
# delta ops
def delta_encode(
    base: bytes, new: bytes, block: int = DELTA_BLOCK_BYTES
) -> Optional[bytes]:
    """Copy/literal ops turning ``base`` into ``new``, or None.

    Block-anchored matching: base blocks index by content, the new value
    scans block-aligned, and every anchor hit extends byte-wise — the
    right shape for values whose edits replace aligned sub-blocks (the
    corpus builders' 64-byte term blocks).  Returns None when the ops
    stream would not be smaller than the value itself (the caller ships
    the full value instead).
    """
    if not base or not new:
        return None
    anchors: Dict[bytes, int] = {}
    offset = 0
    limit = len(base) - block
    while offset <= limit:
        chunk = base[offset : offset + block]
        if chunk not in anchors:
            anchors[chunk] = offset
        offset += block
    ops = bytearray()
    base_len = len(base)
    new_len = len(new)
    position = 0
    literal_start = 0
    while position + block <= new_len:
        match_at = anchors.get(new[position : position + block])
        if match_at is None:
            position += block
            continue
        length = block
        while (
            position + length < new_len
            and match_at + length < base_len
            and new[position + length] == base[match_at + length]
        ):
            length += 1
        if position > literal_start:
            literal = new[literal_start:position]
            append_varint(ops, (len(literal) << 1) | 1)
            ops += literal
        append_varint(ops, length << 1)  # copy op, tag bit 0
        append_varint(ops, match_at)
        position += length
        literal_start = position
        if len(ops) >= new_len:
            return None
    if literal_start < new_len:
        literal = new[literal_start:]
        append_varint(ops, (len(literal) << 1) | 1)
        ops += literal
    if len(ops) >= new_len:
        return None
    return bytes(ops)


def delta_apply(base: bytes, ops: bytes) -> bytes:
    """Replay a :func:`delta_encode` ops stream against its base."""
    out = bytearray()
    pos = 0
    end = len(ops)
    while pos < end:
        header, pos = read_varint(ops, pos)
        length = header >> 1
        if header & 1:
            out += ops[pos : pos + length]
            pos += length
        else:
            offset, pos = read_varint(ops, pos)
            if offset + length > len(base):
                raise WireCodecError(
                    f"delta copy op [{offset}, {offset + length}) exceeds "
                    f"base of {len(base)} bytes"
                )
            out += base[offset : offset + length]
    return bytes(out)


# ----------------------------------------------------------------------
@dataclass
class WireStats:
    """Origin-side accounting for one encoder's lifetime."""

    slices_encoded: int = 0
    entries_unchanged: int = 0
    entries_full: int = 0
    entries_delta: int = 0
    payload_bytes: int = 0  # logical serialized payload
    wire_bytes: int = 0  # compressed stream that travels
    #: modeled codec CPU charge (see module docstring)
    encode_cpu_s: float = 0.0

    @property
    def bytes_saved(self) -> int:
        return self.payload_bytes - self.wire_bytes

    @property
    def compression_ratio(self) -> float:
        """wire / payload — lower is better (1.0 = no saving)."""
        if self.payload_bytes == 0:
            return 1.0
        return self.wire_bytes / self.payload_bytes


class WireEncoder:
    """Build-DC side: rewrites packed slices into the wire encoding.

    Holds the last-shipped ``(signature, value)`` per ``(kind, key)`` —
    the same predecessor knowledge the deduplicator keeps, extended with
    the value bytes so changed values can delta against them.
    """

    def __init__(self) -> None:
        self.stats = WireStats()
        self._bases: Dict[Tuple[IndexKind, bytes], Tuple[bytes, bytes]] = {}

    def forget(self) -> None:
        """Drop every delta base, so the next version ships full values:
        after a failed rollout the receivers may never have decoded the
        values held here."""
        self._bases.clear()

    def encode_slice(self, item) -> None:
        """Attach the compressed wire stream to a packed slice.

        The slice keeps its logical payload (and entries); ``wire`` holds
        what travels, and the CRC is recomputed over the wire bytes —
        relays verify what they actually carried.
        """
        kind = item.kind
        buf = bytearray()
        append_varint(buf, len(item.entries))
        bases = self._bases
        unchanged = full = delta = 0
        for entry in item.entries:
            key = entry.key
            append_varint(buf, len(key))
            buf += key
            value = entry.value
            if value is None:
                buf.append(MODE_UNCHANGED)
                unchanged += 1
                continue
            sig = entry.signature
            if sig is None:
                sig = signature(value)
            base = bases.get((kind, key))
            ops = None
            if base is not None:
                ops = delta_encode(base[1], value)
            if ops is None:
                buf.append(MODE_FULL)
                buf += sig
                append_varint(buf, len(value))
                buf += value
                full += 1
            else:
                buf.append(MODE_DELTA)
                buf += sig
                buf += base[0]
                append_varint(buf, len(ops))
                buf += ops
                delta += 1
            bases[(kind, key)] = (sig, value)
        wire = zlib.compress(bytes(buf), COMPRESS_LEVEL)
        item.wire = wire
        item.crc = checksum(wire)
        stats = self.stats
        stats.slices_encoded += 1
        stats.entries_unchanged += unchanged
        stats.entries_full += full
        stats.entries_delta += delta
        stats.payload_bytes += len(item.payload)
        stats.wire_bytes += len(wire)
        stats.encode_cpu_s += (
            len(item.payload) + len(buf)
        ) / ENCODE_BYTES_PER_S

    def encode_slices(self, slices: List) -> None:
        for item in slices:
            self.encode_slice(item)

    def register_metrics(self, registry) -> None:
        """``bifrost.encoding.*``: the origin-side codec counters."""
        stats = self.stats
        registry.register_many(
            "bifrost.encoding",
            {
                "slices": lambda: stats.slices_encoded,
                "entries_full": lambda: stats.entries_full,
                "entries_delta": lambda: stats.entries_delta,
                "payload_bytes": lambda: stats.payload_bytes,
                "wire_bytes": lambda: stats.wire_bytes,
                "bytes_saved": lambda: stats.bytes_saved,
                "encode_cpu_s": lambda: stats.encode_cpu_s,
            },
        )


# ----------------------------------------------------------------------
@dataclass
class DecodeStats:
    """Receiver-side accounting for one decoder's lifetime."""

    slices_decoded: int = 0
    entries_decoded: int = 0
    deltas_applied: int = 0
    full_values: int = 0
    #: decode attempts that hit a not-yet-arrived delta base
    bases_missing: int = 0
    decode_cpu_s: float = 0.0


class WireDecoder:
    """One per receiving cluster: wire stream back to logical entries.

    Keeps every live decoded value per ``(kind, key)`` keyed by its
    signature, so a delta arriving out of version order still finds its
    exact base (or parks — never applies against wrong bytes).  Entries
    for dropped versions are pruned, except each key's newest value,
    which stays the delta base for keys unchanged since.
    """

    def __init__(self) -> None:
        self.stats = DecodeStats()
        #: (kind, key) -> [(version, signature, value), ...]
        self._values: Dict[
            Tuple[IndexKind, bytes], List[Tuple[int, bytes, bytes]]
        ] = {}

    def decode_slice(self, item) -> List[IndexEntry]:
        """The slice's logical entries, byte-identical to the origin's.

        Verifies the wire CRC first (corruption that slipped past the
        relays is caught before, not after, decompression), decodes the
        whole stream, and only then commits the new values to the base
        cache — a mid-slice missing base leaves the decoder untouched so
        the parked slice can retry cleanly.
        """
        item.verify()
        if item.wire is None:
            raise WireCodecError(
                f"slice {item.slice_id} has no wire stream to decode"
            )
        try:
            raw = zlib.decompress(item.wire)
        except zlib.error as exc:
            raise WireCodecError(
                f"slice {item.slice_id} failed to decompress: {exc}"
            )
        kind = item.kind
        version = item.version
        values = self._values
        entries: List[IndexEntry] = []
        commits: List[Tuple[bytes, bytes, bytes]] = []
        count, pos = read_varint(raw, 0)
        deltas = fulls = 0
        for _ in range(count):
            key_len, pos = read_varint(raw, pos)
            key = raw[pos : pos + key_len]
            pos += key_len
            mode = raw[pos]
            pos += 1
            if mode == MODE_UNCHANGED:
                entries.append(IndexEntry(kind, key, None))
                continue
            sig = raw[pos : pos + SIGNATURE_BYTES]
            pos += SIGNATURE_BYTES
            if mode == MODE_FULL:
                value_len, pos = read_varint(raw, pos)
                value = raw[pos : pos + value_len]
                pos += value_len
                fulls += 1
            elif mode == MODE_DELTA:
                base_sig = raw[pos : pos + SIGNATURE_BYTES]
                pos += SIGNATURE_BYTES
                ops_len, pos = read_varint(raw, pos)
                ops = raw[pos : pos + ops_len]
                pos += ops_len
                base_value = self._find_base(kind, key, base_sig)
                if base_value is None:
                    self.stats.bases_missing += 1
                    raise WireBaseUnavailableError(
                        f"slice {item.slice_id}: no decoded base with the "
                        f"referenced signature for key {key!r}"
                    )
                value = delta_apply(base_value, ops)
                deltas += 1
            else:
                raise WireCodecError(
                    f"slice {item.slice_id}: unknown entry mode {mode}"
                )
            entries.append(IndexEntry(kind, key, value, signature=sig))
            commits.append((key, sig, value))
        if pos != len(raw):
            raise WireCodecError(
                f"slice {item.slice_id}: {len(raw) - pos} trailing bytes "
                "after the last entry"
            )
        for key, sig, value in commits:
            values.setdefault((kind, key), []).append((version, sig, value))
        stats = self.stats
        stats.slices_decoded += 1
        stats.entries_decoded += len(entries)
        stats.deltas_applied += deltas
        stats.full_values += fulls
        stats.decode_cpu_s += (
            len(item.wire) + len(raw)
        ) / DECODE_BYTES_PER_S
        return entries

    def _find_base(
        self, kind: IndexKind, key: bytes, base_sig: bytes
    ) -> Optional[bytes]:
        candidates = self._values.get((kind, key))
        if not candidates:
            return None
        for _version, sig, value in candidates:
            if sig == base_sig:
                return value
        return None

    def release_version(self, version: int) -> None:
        """Prune cache entries of a dropped version.

        Each key's newest value always survives — a key unchanged for
        many versions still deltas against the last value that shipped,
        however old the version that carried it.
        """
        for cache_key, candidates in self._values.items():
            if len(candidates) < 2:
                continue
            if not any(item[0] == version for item in candidates):
                continue
            newest = max(candidates, key=lambda item: item[0])
            self._values[cache_key] = [
                item
                for item in candidates
                if item[0] != version or item is newest
            ]


__all__ = [
    "COMPRESS_LEVEL",
    "DELTA_BLOCK_BYTES",
    "DecodeStats",
    "MODE_DELTA",
    "MODE_FULL",
    "MODE_UNCHANGED",
    "WireDecoder",
    "WireEncoder",
    "WireStats",
    "append_varint",
    "delta_apply",
    "delta_encode",
    "read_varint",
]
