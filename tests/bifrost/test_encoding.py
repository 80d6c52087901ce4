"""Unit + property tests for the wire encoding layer.

Covers the codec primitives (varints), ``MODE_DELTA`` round trips
through the encoder and decoder (delivered entries byte-identical to
what was packed), the typed errors a torn or mismatching stream raises,
one decode shared by many receivers, and the out-of-order story: a delta
whose base has not landed parks the slice, and the cluster drains it
once the base arrives.
"""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.encoding import (
    COMPRESS_LEVEL,
    CONTEXT_BYTES,
    MODE_DELTA,
    SliceDecodes,
    WireDecoder,
    WireEncoder,
    append_varint,
    read_varint,
)
from repro.bifrost.signature import SIGNATURE_BYTES, checksum, signature
from repro.bifrost.slices import Slice
from repro.errors import (
    ChecksumMismatchError,
    WireBaseUnavailableError,
    WireCodecError,
)
from repro.indexing.types import IndexEntry, IndexKind
from repro.mint.cluster import MintCluster, MintConfig


def block_value(blocks, block=64):
    """A value composed of labelled 64-byte blocks, like the builders'."""
    return b"".join(
        (f"block-{label}-" .encode() * block)[:block] for label in blocks
    )


def packed(version, entries, slice_id=None):
    return Slice.pack(
        slice_id or f"v{version}-s0", version, entries[0].kind, entries
    )


def encode_one(encoder, version, entries, slice_id=None):
    item = packed(version, entries, slice_id)
    encoder.encode_slice(item)
    return item


# ------------------------------------------------------------------ varints
@given(st.integers(min_value=0, max_value=2**63))
def test_varint_roundtrip(value):
    buf = bytearray()
    append_varint(buf, value)
    decoded, pos = read_varint(bytes(buf), 0)
    assert decoded == value
    assert pos == len(buf)


def test_varint_truncated_stream_raises():
    buf = bytearray()
    append_varint(buf, 1 << 20)
    with pytest.raises(WireCodecError):
        read_varint(bytes(buf[:-1]), 0)


# ------------------------------------------------------------ delta mode
def roundtrip(versions):
    """Encode each version's entries as one slice and decode it; returns
    the encoder, the decoder and the last slice."""
    encoder = WireEncoder()
    decoder = WireDecoder()
    for version, entries in enumerate(versions, start=1):
        item = encode_one(encoder, version, entries)
        decoded = decoder.decode_slice(item)
        assert [(e.key, e.value) for e in decoded] == [
            (e.key, e.value) for e in entries
        ]
        for entry in decoded:
            if entry.value is not None:
                assert entry.signature == signature(entry.value)
    return encoder, decoder, item


def one(key, value):
    return [IndexEntry(IndexKind.FORWARD, key, value)]


def docs(keys, blocks):
    """One entry per key: the labelled blocks, then a block of its own."""
    return [
        IndexEntry(IndexKind.FORWARD, key, block_value([*blocks, key.decode()]))
        for key in keys
    ]


def test_delta_roundtrip_on_block_edit():
    base = block_value(["a", "b", "c", "d"])
    new = block_value(["a", "X", "c", "d"])
    encoder, decoder, item = roundtrip([one(b"doc", base), one(b"doc", new)])
    assert encoder.stats.entries_delta == 1
    assert decoder.stats.deltas_applied == 1
    assert item.wire_bytes < len(new)  # the whole point


def test_delta_declines_when_nothing_matches():
    base = bytes(range(256)) * 2
    new = random.Random(7).randbytes(512)  # incompressible, unrelated
    encoder, _decoder, _item = roundtrip([one(b"k", base), one(b"k", new)])
    assert encoder.stats.entries_delta == 0  # full value ships instead
    assert encoder.stats.entries_full == 2


def test_delta_roundtrips_empty_inputs():
    encoder, _decoder, _item = roundtrip(
        [one(b"k", b""), one(b"k", b"abc" * 100), one(b"k", b"")]
    )
    # An empty base is still a base; an empty value never pays as a delta.
    assert encoder.stats.entries_delta == 1
    assert encoder.stats.entries_full == 2


def test_delta_against_wrong_dictionary_rejected():
    """Raw DEFLATE has no dictionary id: a stream inflated against other
    bytes is caught by the value's signature, never delivered."""
    base = block_value(list("abcd"))
    new = block_value(list("abXd"))
    # Deflated against bytes that share much with the base, but not all.
    deflater = zlib.compressobj(
        COMPRESS_LEVEL, zlib.DEFLATED, -15, zdict=block_value(list("abXY"))
    )
    stream = deflater.compress(new) + deflater.flush()
    decoder = WireDecoder()
    decoder.decode_slice(encode_one(WireEncoder(), 1, one(b"doc", base)))
    item = sealed(
        2, delta_stream(b"doc", signature(new), signature(base), stream)
    )
    before = dict(decoder._values)
    with pytest.raises(WireCodecError, match="signature"):
        decoder.decode_slice(item)
    assert decoder._values == before


def delta_stream(key, sig, base_sig, stream):
    """A packed one-entry slice stream carrying a hand-made delta."""
    buf = bytearray()
    append_varint(buf, 1)
    append_varint(buf, len(key))
    buf += key
    buf.append(MODE_DELTA)
    buf += sig + base_sig
    append_varint(buf, len(stream))
    buf += stream
    return bytes(buf)


def sealed(version, raw, slice_id=None):
    """A slice whose wire is ``raw`` DEFLATE-packed, with a correct CRC."""
    item = packed(version, one(b"k", b"v"), slice_id)
    item.wire = zlib.compress(raw)
    item.crc = checksum(item.wire)
    return item


def test_truncated_or_overlong_delta_stream_rejected():
    base = block_value(list("abcd"))
    new = block_value(list("abXd"))
    encoder = WireEncoder()
    decoder = WireDecoder()
    decoder.decode_slice(encode_one(encoder, 1, one(b"doc", base)))
    deflater = zlib.compressobj(COMPRESS_LEVEL, zlib.DEFLATED, -15, zdict=base)
    stream = deflater.compress(new) + deflater.flush()
    sigs = (signature(new), signature(base))
    for bad, reason in (
        (stream[:-3], "truncated"),
        (stream + b"junk", "after the delta"),
        (b"\xff" * 8, "corrupt"),
    ):
        item = sealed(2, delta_stream(b"doc", *sigs, bad))
        with pytest.raises(WireCodecError, match=reason):
            decoder.decode_slice(item)
    assert decoder.decode_slice(
        sealed(2, delta_stream(b"doc", *sigs, stream))
    )[0].value == new


def test_every_cut_of_a_delta_slice_raises_a_typed_error():
    """A stream torn at any offset (and re-sealed with a good CRC) is a
    :class:`WireCodecError` naming the slice, and commits nothing."""
    encoder = WireEncoder()
    decoder = WireDecoder()
    keys = [b"alpha", b"beta", b"gamma"]
    decoder.decode_slice(encode_one(encoder, 1, docs(keys, "abcd")))
    item = encode_one(encoder, 2, docs(keys, "abXd"))
    assert encoder.stats.entries_delta == 3
    raw = zlib.decompress(item.wire)
    before = {k: list(v) for k, v in decoder._values.items()}
    for cut in range(len(raw)):
        torn = sealed(2, raw[:cut], slice_id=f"cut-{cut}")
        with pytest.raises(WireCodecError, match=f"slice cut-{cut}:"):
            decoder.decode_slice(torn)
        assert decoder._values == before
        assert len(decoder.decodes) == 0
    assert decoder.stats.slices_decoded == 1


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.binary(max_size=CONTEXT_BYTES + 512),  # base
            st.integers(min_value=0, max_value=CONTEXT_BYTES + 512),  # at
            st.binary(max_size=40),  # edit, anywhere, any length
            st.integers(min_value=0, max_value=64),  # bytes it replaces
            st.sampled_from(["edit", "same", "unchanged", "new"]),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_delta_roundtrip_property(pairs):
    """Base/new pairs — non-block-aligned edits, empty bases, identical
    values, values beyond :data:`CONTEXT_BYTES` — mixed with full and
    unchanged entries in one slice, round trip byte-identical."""
    first, second = [], []
    for index, (base, at, edit, cut, shape) in enumerate(pairs):
        key = f"k{index}".encode()
        at = min(at, len(base))
        first.append(IndexEntry(IndexKind.FORWARD, key, base))
        if shape == "edit":
            value = base[:at] + edit + base[at + cut :]
        elif shape == "same":
            value = base
        elif shape == "unchanged":
            value = None
        else:
            key, value = b"new-" + key, edit
        second.append(IndexEntry(IndexKind.FORWARD, key, value))
    roundtrip([first, second])


def test_repeated_structure_across_a_slice_deflates_against_it():
    """The slice's preceding values are part of every delta's
    dictionary, so a change shared by many keys ships about once."""
    keys = [f"doc-{i}".encode() for i in range(12)]
    v1 = docs(keys, "abcd")
    edit = random.Random(3).randbytes(200)
    v2 = [
        IndexEntry(IndexKind.FORWARD, e.key, e.value[:64] + edit + e.value[64:])
        for e in v1
    ]
    encoder, _decoder, item = roundtrip([v1, v2])
    assert encoder.stats.entries_delta == len(keys)
    # The edit about once, plus each entry's two signatures and a little.
    assert item.wire_bytes < len(edit) + len(keys) * (2 * SIGNATURE_BYTES + 24)


# -------------------------------------------------------- encode <-> decode
def test_encode_decode_roundtrip_full_values():
    encoder = WireEncoder()
    decoder = WireDecoder()
    entries = [
        IndexEntry(IndexKind.FORWARD, f"k{i}".encode(), block_value(["a", str(i)]))
        for i in range(8)
    ]
    item = encode_one(encoder, 1, entries)
    assert item.wire is not None
    assert item.payload_bytes > item.wire_bytes  # compression paid
    decoded = decoder.decode_slice(item)
    assert [(e.key, e.value) for e in decoded] == [
        (e.key, e.value) for e in entries
    ]
    assert encoder.stats.entries_full == 8
    assert decoder.stats.full_values == 8


def test_changed_values_travel_as_deltas():
    encoder = WireEncoder()
    decoder = WireDecoder()
    v1 = [
        IndexEntry(IndexKind.FORWARD, b"doc", block_value(list("abcdefgh")))
    ]
    v2_value = block_value(list("abcdeXgh"))
    v2 = [IndexEntry(IndexKind.FORWARD, b"doc", v2_value)]
    decoder.decode_slice(encode_one(encoder, 1, v1))
    item2 = encode_one(encoder, 2, v2)
    assert encoder.stats.entries_delta == 1
    # A delta slice is dramatically smaller than the full value.
    assert item2.wire_bytes < len(v2_value) // 2
    decoded = decoder.decode_slice(item2)
    assert decoded[0].value == v2_value  # byte-identical after delta+inflate
    assert decoded[0].signature == signature(v2_value)
    assert decoder.stats.deltas_applied == 1


def test_unchanged_markers_survive_the_wire():
    encoder = WireEncoder()
    decoder = WireDecoder()
    entries = [
        IndexEntry(IndexKind.SUMMARY, b"changed", block_value(["a", "b"])),
        IndexEntry(IndexKind.SUMMARY, b"same", None),
        IndexEntry(IndexKind.SUMMARY, b"empty", b""),
    ]
    decoded = decoder.decode_slice(encode_one(encoder, 1, entries))
    assert decoded[1].value is None
    assert decoded[2].value == b""  # empty value distinct from None
    assert encoder.stats.entries_unchanged == 1


def test_decoder_requires_exact_base_signature():
    """A delta never applies against bytes that merely share the key."""
    encoder = WireEncoder()
    base_value = block_value(list("abcd"))
    encoder.encode_slice(
        packed(1, [IndexEntry(IndexKind.FORWARD, b"doc", base_value)])
    )
    item2 = encode_one(
        encoder, 2, [IndexEntry(IndexKind.FORWARD, b"doc", block_value(list("abXd")))]
    )
    assert encoder.stats.entries_delta == 1
    fresh = WireDecoder()  # never saw version 1
    with pytest.raises(WireBaseUnavailableError):
        fresh.decode_slice(item2)
    assert fresh.stats.bases_missing == 1
    assert fresh.stats.slices_decoded == 0  # nothing committed


def test_decode_is_transactional_on_missing_base():
    """A mid-slice missing base leaves the decoder cache untouched."""
    encoder = WireEncoder()
    decoder = WireDecoder()
    v1 = [
        IndexEntry(IndexKind.FORWARD, b"k-full", block_value(["a", "b"])),
        IndexEntry(IndexKind.FORWARD, b"k-delta", block_value(list("cdef"))),
    ]
    decoder.decode_slice(encode_one(encoder, 1, v1))
    v2 = [
        IndexEntry(IndexKind.FORWARD, b"k-full", block_value(["a", "Z"])),
        IndexEntry(IndexKind.FORWARD, b"k-delta", block_value(list("cdXf"))),
    ]
    item2 = encode_one(encoder, 2, v2)
    victim = WireDecoder()
    before = len(victim._values)
    with pytest.raises(WireBaseUnavailableError):
        victim.decode_slice(item2)
    assert len(victim._values) == before  # no partial commit
    # The original decoder (which has the bases) still decodes it.
    decoded = decoder.decode_slice(item2)
    assert [e.value for e in decoded] == [e.value for e in v2]


def test_corrupted_wire_fails_before_decompression():
    encoder = WireEncoder()
    decoder = WireDecoder()
    item = encode_one(
        encoder, 1, [IndexEntry(IndexKind.FORWARD, b"k", block_value(["a"]))]
    )
    item.corrupt()
    assert item.wire != item._pristine[1]  # a real byte flipped in the wire
    with pytest.raises(ChecksumMismatchError):
        decoder.decode_slice(item)
    clean = item.clean_copy()
    clean.verify()
    assert decoder.decode_slice(clean)[0].value == block_value(["a"])


def test_trailing_bytes_rejected():
    encoder = WireEncoder()
    item = encode_one(
        encoder, 1, [IndexEntry(IndexKind.FORWARD, b"k", block_value(["a"]))]
    )
    padded = zlib.compress(zlib.decompress(item.wire) + b"\x00garbage")
    item.wire = padded
    item.crc = checksum(padded)
    with pytest.raises(WireCodecError):
        WireDecoder().decode_slice(item)


def test_unknown_mode_rejected():
    buf = bytearray()
    append_varint(buf, 1)  # one entry
    append_varint(buf, 1)  # key length
    buf += b"k"
    buf.append(7)  # not a mode
    item = packed(1, [IndexEntry(IndexKind.FORWARD, b"k", b"v")])
    item.wire = zlib.compress(bytes(buf))
    item.crc = checksum(item.wire)
    with pytest.raises(WireCodecError):
        WireDecoder().decode_slice(item)


def test_release_version_keeps_newest_base():
    encoder = WireEncoder()
    decoder = WireDecoder()
    values = {
        1: block_value(list("abcd")),
        2: block_value(list("abXd")),
    }
    for version, value in values.items():
        decoder.decode_slice(
            encode_one(
                encoder, version, [IndexEntry(IndexKind.FORWARD, b"doc", value)]
            )
        )
    decoder.release_version(2)  # newest survives pruning...
    decoder.release_version(1)
    item3 = encode_one(
        encoder, 3, [IndexEntry(IndexKind.FORWARD, b"doc", block_value(list("abXZ")))]
    )
    assert encoder.stats.entries_delta >= 1
    decoded = decoder.decode_slice(item3)  # ...so version 3 still deltas
    assert decoded[0].value == block_value(list("abXZ"))


# -------------------------------------------------- cluster parking + drain
def test_cluster_parks_out_of_order_delta_and_drains():
    encoder = WireEncoder()
    cluster = MintCluster("dc1", MintConfig(group_count=1, nodes_per_group=3))
    v1_value = block_value(list("abcdefgh"))
    v2_value = block_value(list("abcdeXgh"))
    item1 = encode_one(
        encoder, 1, [IndexEntry(IndexKind.FORWARD, b"doc", v1_value)]
    )
    item2 = encode_one(
        encoder, 2, [IndexEntry(IndexKind.FORWARD, b"doc", v2_value)]
    )
    assert encoder.stats.entries_delta == 1
    # Version 2 overtakes version 1: the delta's base is missing.
    assert cluster.ingest_slice(item2) == 1  # counted at arrival
    assert cluster.slices_parked == 1
    with pytest.raises(Exception):
        cluster.query(IndexKind.FORWARD, b"doc", 2)  # not stored yet
    # The base lands; ingest succeeds and drains the parked slice.
    assert cluster.ingest_slice(item1) == 1
    assert cluster.slices_unparked == 1
    assert cluster.query(IndexKind.FORWARD, b"doc", 1) == v1_value
    assert cluster.query(IndexKind.FORWARD, b"doc", 2) == v2_value


def test_cluster_drops_parked_slice_of_retired_version():
    encoder = WireEncoder()
    cluster = MintCluster("dc1", MintConfig(group_count=1, nodes_per_group=3))
    v1_value = block_value(list("abcd"))
    item1 = encode_one(
        encoder, 1, [IndexEntry(IndexKind.FORWARD, b"doc", v1_value)]
    )
    item2 = encode_one(
        encoder, 2, [IndexEntry(IndexKind.FORWARD, b"doc", block_value(list("abXd")))]
    )
    cluster.ingest_slice(item2)  # parks (base missing)
    assert cluster.slices_parked == 1
    cluster.drop_version(2)  # retired while parked: dropped here
    cluster.ingest_slice(item1)  # nothing of version 2 left to drain
    assert cluster.parked_dropped == 1
    assert cluster.query(IndexKind.FORWARD, b"doc", 1) == v1_value
    with pytest.raises(Exception):
        cluster.query(IndexKind.FORWARD, b"doc", 2)


def test_cluster_wire_ingest_matches_plain_ingest():
    """The wire path stores byte-identical values to the plain path."""
    entries = [
        IndexEntry(
            IndexKind.FORWARD, f"url-{i}".encode(), block_value(["a", str(i)])
        )
        for i in range(6)
    ]
    plain = MintCluster("plain", MintConfig(group_count=1, nodes_per_group=3))
    plain.ingest_slice(packed(1, list(entries)))
    encoder = WireEncoder()
    wired = MintCluster("wired", MintConfig(group_count=1, nodes_per_group=3))
    wired.ingest_slice(encode_one(encoder, 1, list(entries)))
    for entry in entries:
        assert wired.query(entry.kind, entry.key, 1) == plain.query(
            entry.kind, entry.key, 1
        )


# ------------------------------------------------ one decode for the fleet
def test_decoders_sharing_a_decode_each_park_on_their_own_missing_base():
    decodes = SliceDecodes({IndexKind.FORWARD: 3})
    decoders = [WireDecoder(decodes) for _ in range(3)]
    encoder = WireEncoder()
    item1 = encode_one(encoder, 1, one(b"doc", block_value(list("abcd"))))
    new = block_value(list("abXd"))
    item2 = encode_one(encoder, 2, one(b"doc", new))
    assert encoder.stats.entries_delta == 1
    decoders[0].decode_slice(item1)
    decoded = decoders[0].decode_slice(item2)  # the fleet's one decode
    for decoder in decoders[1:]:
        with pytest.raises(WireBaseUnavailableError):
            decoder.decode_slice(item2)  # its own cache lacks the base
        assert decoder.stats.bases_missing == 1
        assert decoder._values == {}
    assert decodes[(IndexKind.FORWARD, 2, item2.wire)].pending == 2
    for decoder in decoders[1:]:
        decoder.decode_slice(item1)
        assert decoder.decode_slice(item2) is decoded  # not decoded again
        assert decoder.stats.deltas_applied == 1
        assert decoder._values[(IndexKind.FORWARD, b"doc")][-1][2] == new
    assert len(decodes) == 0  # every receiver committed: freed


def test_released_version_frees_undelivered_decodes():
    decodes = SliceDecodes({IndexKind.FORWARD: 2})
    decoder = WireDecoder(decodes)
    item = encode_one(WireEncoder(), 1, one(b"doc", block_value(["a"])))
    decoder.decode_slice(item)
    assert len(decodes) == 1  # the other receiver has not committed
    decoder.release_version(1)
    assert len(decodes) == 0
