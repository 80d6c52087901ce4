"""Unit + property tests for the wire encoding layer.

Covers the codec primitives (varints, delta ops), the encoder/decoder
round trip (delivered entries byte-identical to what was packed), and
the out-of-order story: a delta whose base has not landed parks the
slice, and the cluster drains it once the base arrives.
"""

import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bifrost.encoding import (
    DELTA_BLOCK_BYTES,
    WireDecoder,
    WireEncoder,
    append_varint,
    delta_apply,
    delta_encode,
    read_varint,
)
from repro.bifrost.signature import signature
from repro.bifrost.slices import Slice
from repro.errors import (
    ChecksumMismatchError,
    WireBaseUnavailableError,
    WireCodecError,
)
from repro.indexing.types import IndexEntry, IndexKind
from repro.mint.cluster import MintCluster, MintConfig


def block_value(blocks, block=DELTA_BLOCK_BYTES):
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


# ---------------------------------------------------------------- delta ops
def test_delta_roundtrip_on_block_edit():
    base = block_value(["a", "b", "c", "d"])
    new = block_value(["a", "X", "c", "d"])
    ops = delta_encode(base, new)
    assert ops is not None
    assert len(ops) < len(new)  # the whole point
    assert delta_apply(base, ops) == new


def test_delta_declines_when_nothing_matches():
    base = bytes(range(256)) * 2
    new = bytes(reversed(range(256))) * 2
    assert delta_encode(base, new) is None  # full value ships instead


def test_delta_declines_empty_inputs():
    assert delta_encode(b"", b"abc" * 100) is None
    assert delta_encode(b"abc" * 100, b"") is None


def test_delta_apply_rejects_out_of_range_copy():
    ops = bytearray()
    append_varint(ops, 100 << 1)  # copy 100 bytes...
    append_varint(ops, 50)  # ...from offset 50 of a 64-byte base
    with pytest.raises(WireCodecError):
        delta_apply(b"x" * 64, bytes(ops))


@given(
    st.lists(
        st.sampled_from(["a", "b", "c", "d", "e", "f"]),
        min_size=2,
        max_size=12,
    ),
    st.lists(
        st.sampled_from(["a", "b", "c", "d", "e", "f", "Z"]),
        min_size=2,
        max_size=12,
    ),
)
def test_delta_roundtrip_property(base_blocks, new_blocks):
    base = block_value(base_blocks)
    new = block_value(new_blocks)
    ops = delta_encode(base, new)
    if ops is not None:
        assert delta_apply(base, ops) == new
        assert len(ops) < len(new)


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
    from repro.bifrost.signature import checksum

    padded = zlib.compress(zlib.decompress(item.wire) + b"\x00garbage")
    item.wire = padded
    item.crc = checksum(padded)
    with pytest.raises(WireCodecError):
        WireDecoder().decode_slice(item)


def test_unknown_mode_rejected():
    from repro.bifrost.signature import checksum

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
    cluster.drop_version(2)  # version retired while parked
    cluster.ingest_slice(item1)  # drain pass sees the retirement
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
