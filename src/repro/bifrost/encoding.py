"""Wire encoding: what dedup doesn't catch, preset-dictionary DEFLATE does.

Whole-value signature dedup (paper 2.2) removes *unchanged* values from
the wire; a changed value still ships.  This layer sits between the
slicer and the scheduler and rewrites each slice for transmission with
nothing but stdlib ``zlib``.  Per entry: an unchanged marker, a full
value, or a **delta** — one raw-DEFLATE stream whose preset dictionary is
the slice's preceding values (in entry order) followed by the previous
version's value of the key, the *base*, :data:`CONTEXT_BYTES` in all.
The base is named by its signature, so a receiver inflates only against
provably identical bytes, and rebuilds the rest of the dictionary from
what it has already decoded in that slice.  Lengths are LEB128 varints
and the packed stream is DEFLATE-compressed as one unit.

The :class:`~repro.bifrost.slices.Slice` keeps its logical ``payload``
and gains ``wire``, the stream that travels: transport accounting runs
on wire bytes, and the entries each cluster decodes at ingest are
byte-identical to the unencoded run.  Every receiver gets the same
stream, so it is inflated **once for the fleet** (:class:`SliceDecodes`);
each cluster's :class:`WireDecoder` still verifies the CRC, checks that
every referenced base is in its *own* signature-keyed cache (or raises
:class:`~repro.errors.WireBaseUnavailableError`, and the cluster parks
the slice until the base lands), commits to that cache and charges its
own modeled CPU.  Raw DEFLATE has no dictionary id and no checksum, so
each delta is checked against its shipped signature when inflated; a
torn, overlong or mismatching stream raises
:class:`~repro.errors.WireCodecError` — never wrong bytes.

Codec CPU is not simulated time (encoding happens in the build DC's
generation window); both sides charge a deterministic modeled account
(``encode_cpu_s`` / ``decode_cpu_s``) that the bandwidth bench reports.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bifrost.signature import SIGNATURE_BYTES, checksum, signature
from repro.errors import WireBaseUnavailableError, WireCodecError
from repro.indexing.types import IndexEntry, IndexKind

#: per-entry wire modes
MODE_UNCHANGED = 0  # deduplicated marker: no value travels
MODE_FULL = 1  # full value (no base, or the delta would not pay)
MODE_DELTA = 2  # raw DEFLATE against the slice so far + a matched base

#: cap on a delta's preset dictionary: the tail of the slice's
#: preceding values followed by the base
CONTEXT_BYTES = 16 * 1024

#: DEFLATE level for the delta streams and the packed slice stream
COMPRESS_LEVEL = 6

#: raw DEFLATE window bits: no zlib header, no Adler-32 (the value's
#: signature is the check)
_RAW = -15

#: modeled single-core codec throughputs (bytes/second) for the CPU
#: charge accounting; deterministic, so bench entries are reproducible.
#: Measured on ``retention_month`` pairs (both seeds, 2-vCPU Xeon VM):
#: encode ~41 MB/s of payload + packed bytes, one full decode ~43 MB/s
#: of wire + packed bytes.  Every receiver is charged a full decode.
ENCODE_BYTES_PER_S = 41e6
DECODE_BYTES_PER_S = 43e6


# ----------------------------------------------------------------------
# varints
def append_varint(buf: bytearray, value: int) -> None:
    """LEB128-append a non-negative integer."""
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def read_varint(data: bytes, pos: int, what: str = "varint") -> Tuple[int, int]:
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
        raise WireCodecError(f"{what} runs past the end of the stream")


def _dictionary(history: bytearray, base: bytes) -> bytes:
    """A delta's preset dictionary: the slice so far, then the base,
    :data:`CONTEXT_BYTES` at most (the most recent bytes win)."""
    room = CONTEXT_BYTES - len(base)
    if room <= 0:
        return base[-CONTEXT_BYTES:]
    return history[-room:] + base


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
    the value bytes so changed values can deflate against them.
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
        history = bytearray()
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
            sig = entry.signature or signature(value)
            base = bases.get((kind, key))
            data = value
            if base is not None:
                deflater = zlib.compressobj(
                    COMPRESS_LEVEL, zlib.DEFLATED, _RAW,
                    zdict=_dictionary(history, base[1]),
                )
                data = deflater.compress(value) + deflater.flush()
            if len(data) < len(value):
                buf.append(MODE_DELTA)
                buf += sig + base[0]
                delta += 1
            else:
                data = value
                buf.append(MODE_FULL)
                buf += sig
                full += 1
            append_varint(buf, len(data))
            buf += data
            history += value
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


class DecodedSlice(list):
    """One slice's logical entries — a wire stream inflated and parsed,
    or a plain slice's own — as the fleet's receivers take them.

    It *is* the entry list, with ``bases`` (``(key, base signature)`` of
    every delta entry, in entry order), ``raw_bytes`` (the inflated
    stream's length), ``pending`` (receivers yet to take it), and what
    they all store, built by the first: ``batch`` (Mint's put batch with
    its bodies) and ``signatures`` (each entry's build signature, for
    the integrity summaries)."""

    __slots__ = ("bases", "raw_bytes", "pending", "batch", "signatures")

    def __init__(self, entries, bases, raw_bytes: int, pending: int) -> None:
        super().__init__(entries)
        self.bases = bases
        self.raw_bytes = raw_bytes
        self.pending = pending
        self.batch = self.signatures = None


class SliceDecodes(dict):
    """Slices shared by one fleet's receivers, keyed by ``(kind,
    version, bytes that travelled)``: the wire stream, decoded by the
    first decoder holding every base it references, or a plain slice's
    payload.  A slice goes once ``receivers[kind]`` receivers (one when
    not given) have taken it, or when its version is released."""

    def __init__(self, receivers: Optional[Mapping[IndexKind, int]] = None):
        super().__init__()
        self.receivers = receivers or {}

    def plain(self, item) -> DecodedSlice:
        """Take the plain (unencoded) slice ``item``."""
        key = (item.kind, item.version, item.payload)
        if key not in self:
            pending = self.receivers.get(item.kind, 1)
            self[key] = DecodedSlice(item.entries, [], 0, pending)
        return self.taken(key, self[key])

    def taken(self, key, shared: DecodedSlice) -> DecodedSlice:
        """``shared``, one more receiver having taken it."""
        shared.pending -= 1
        if shared.pending <= 0:
            del self[key]
        return shared

    def release(self, version: int) -> None:
        for key in [key for key in self if key[1] == version]:
            del self[key]


class WireDecoder:
    """One per receiving cluster: wire stream back to logical entries.

    Keeps every live decoded value per ``(kind, key)`` keyed by its
    signature, so a delta arriving out of version order still finds its
    exact base (or parks — never inflates against wrong bytes).  Entries
    for dropped versions are pruned, except each key's newest value,
    which stays the delta base for keys unchanged since; the cache keys
    a version committed under are indexed by version, so a release
    visits those alone.  ``decodes`` is the fleet's shared table (a
    private one when not given).
    """

    def __init__(self, decodes: Optional[SliceDecodes] = None) -> None:
        self.stats = DecodeStats()
        self.decodes = SliceDecodes() if decodes is None else decodes
        #: (kind, key) -> [(version, signature, value), ...]
        self._values: Dict[
            Tuple[IndexKind, bytes], List[Tuple[int, bytes, bytes]]
        ] = {}
        #: version -> the cache keys holding a value of it
        self._committed: Dict[int, Dict[Tuple[IndexKind, bytes], None]] = {}

    def decode_slice(self, item) -> DecodedSlice:
        """The slice's logical entries, byte-identical to the origin's.

        Verifies the wire CRC first (corruption that slipped past the
        relays is caught before, not after, decompression), decodes the
        whole stream — or takes the fleet's decode of it after checking
        its bases here — and only then commits the new values to the base
        cache: a missing base or a torn stream leaves the decoder
        untouched, so a parked slice can retry cleanly.
        """
        item.verify()
        if item.wire is None:
            raise WireCodecError(
                f"slice {item.slice_id} has no wire stream to decode"
            )
        kind = item.kind
        version = item.version
        shared = (kind, version, item.wire)
        decoded = self.decodes.get(shared)
        if decoded is None:
            decoded = self.decodes[shared] = self._decode(item)
        else:
            for key, base_sig in decoded.bases:
                self._base(item, key, base_sig)
        self.decodes.taken(shared, decoded)
        values = self._values
        holding = self._committed.setdefault(version, {})
        committed = 0
        for entry in decoded:
            if entry.value is not None:
                cache_key = (kind, entry.key)
                values.setdefault(cache_key, []).append(
                    (version, entry.signature, entry.value)
                )
                holding[cache_key] = None
                committed += 1
        stats = self.stats
        stats.slices_decoded += 1
        stats.entries_decoded += len(decoded)
        stats.deltas_applied += len(decoded.bases)
        stats.full_values += committed - len(decoded.bases)
        stats.decode_cpu_s += (
            len(item.wire) + decoded.raw_bytes
        ) / DECODE_BYTES_PER_S
        return decoded

    def _decode(self, item) -> DecodedSlice:
        """Inflate and parse a slice's stream, every field bound-checked."""
        where = f"slice {item.slice_id}"
        try:
            raw = zlib.decompress(item.wire)
        except zlib.error as exc:
            raise WireCodecError(f"{where} failed to decompress: {exc}")
        end = len(raw)

        def take(pos: int, length: int, field: str) -> bytes:
            if pos + length > end:
                raise WireCodecError(
                    f"{where}: {field} runs past the end of the stream"
                )
            return raw[pos : pos + length]

        kind = item.kind
        entries: List[IndexEntry] = []
        bases: List[Tuple[bytes, bytes]] = []
        history = bytearray()
        count, pos = read_varint(raw, 0, f"{where}: entry count")
        for _ in range(count):
            key_len, pos = read_varint(raw, pos, f"{where}: key length")
            key = take(pos, key_len, "key")
            mode = take(pos + key_len, 1, "entry mode")[0]
            pos += key_len + 1
            if mode == MODE_UNCHANGED:
                entries.append(IndexEntry(kind, key, None))
                continue
            if mode not in (MODE_FULL, MODE_DELTA):
                raise WireCodecError(f"{where}: unknown entry mode {mode}")
            sig = take(pos, SIGNATURE_BYTES, "signature")
            pos += SIGNATURE_BYTES
            if mode == MODE_DELTA:
                base_sig = take(pos, SIGNATURE_BYTES, "base signature")
                pos += SIGNATURE_BYTES
            length, pos = read_varint(raw, pos, f"{where}: value length")
            value = take(pos, length, "value")
            pos += length
            if mode == MODE_DELTA:
                base = self._base(item, key, base_sig)
                inflater = zlib.decompressobj(
                    _RAW, zdict=_dictionary(history, base)
                )
                try:
                    value = inflater.decompress(value)
                except zlib.error as exc:
                    raise WireCodecError(f"{where}: delta is corrupt: {exc}")
                if not inflater.eof:
                    raise WireCodecError(f"{where}: delta is truncated")
                if inflater.unused_data:
                    raise WireCodecError(f"{where}: bytes after the delta")
                if signature(value) != sig:
                    raise WireCodecError(
                        f"{where}: delta for key {key!r} inflated to bytes "
                        "that do not match its signature"
                    )
                bases.append((key, base_sig))
            history += value
            entries.append(IndexEntry(kind, key, value, signature=sig))
        if pos != end:
            raise WireCodecError(
                f"{where}: {end - pos} trailing bytes after the last entry"
            )
        return DecodedSlice(
            entries, bases, end, self.decodes.receivers.get(kind, 1)
        )

    def _base(self, item, key: bytes, base_sig: bytes) -> bytes:
        """This decoder's value of ``key`` with signature ``base_sig``;
        raises :class:`WireBaseUnavailableError` when it has none."""
        for _version, sig, value in self._values.get((item.kind, key), ()):
            if sig == base_sig:
                return value
        self.stats.bases_missing += 1
        raise WireBaseUnavailableError(
            f"slice {item.slice_id}: no decoded base with the "
            f"referenced signature for key {key!r}"
        )

    def release_version(self, version: int) -> None:
        """Prune cache entries of a dropped version, and the fleet's
        decodes of it.

        Each key's newest value always survives — a key unchanged for
        many versions still deltas against the last value that shipped,
        however old the version that carried it.
        """
        self.decodes.release(version)
        values = self._values
        kept: Dict[Tuple[IndexKind, bytes], None] = {}
        for cache_key in self._committed.pop(version, ()):
            candidates = values[cache_key]
            newest = max(candidates, key=itemgetter(0))
            if len(candidates) > 1:
                values[cache_key] = [
                    item
                    for item in candidates
                    if item[0] != version or item is newest
                ]
            if newest[0] == version:
                # still this version's: a later release prunes it once
                # a newer value has arrived, as a scan of every key would
                kept[cache_key] = None
        if kept:
            self._committed[version] = kept


__all__ = [
    "COMPRESS_LEVEL",
    "CONTEXT_BYTES",
    "DecodeStats",
    "MODE_DELTA",
    "MODE_FULL",
    "MODE_UNCHANGED",
    "SliceDecodes",
    "WireDecoder",
    "WireEncoder",
    "WireStats",
    "append_varint",
    "read_varint",
]
