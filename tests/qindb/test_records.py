"""Unit + property tests for AOF record framing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptionError, StorageError
from repro.qindb.records import (
    HEAD_SIZE,
    HEADER_SIZE,
    Bodies,
    Record,
    RecordType,
    decode_record,
    decode_value,
    encode_frame,
    encode_record,
    frame_heads,
    scan_frames,
    scan_records,
)


def test_roundtrip_put_value():
    record = Record(RecordType.PUT_VALUE, b"url-1", 7, b"payload")
    decoded, end = decode_record(encode_record(record))
    assert decoded == record
    assert end == record.encoded_size


def test_roundtrip_dedup_and_delete():
    for rtype in (RecordType.PUT_DEDUP, RecordType.DELETE):
        record = Record(rtype, b"key", 3)
        decoded, _end = decode_record(encode_record(record))
        assert decoded == record
        assert decoded.type is not RecordType.PUT_VALUE


def test_valueless_types_reject_values():
    with pytest.raises(StorageError):
        Record(RecordType.PUT_DEDUP, b"k", 1, b"oops")
    with pytest.raises(StorageError):
        Record(RecordType.DELETE, b"k", 1, b"oops")


def test_version_bounds():
    with pytest.raises(StorageError):
        Record(RecordType.PUT_VALUE, b"k", -1, b"v")
    with pytest.raises(StorageError):
        Record(RecordType.PUT_VALUE, b"k", 2**64, b"v")
    # The extremes are fine.
    Record(RecordType.PUT_VALUE, b"k", 0, b"v")
    Record(RecordType.PUT_VALUE, b"k", 2**64 - 1, b"v")


def test_corrupted_payload_detected():
    encoded = bytearray(encode_record(Record(RecordType.PUT_VALUE, b"k", 1, b"vvvv")))
    encoded[-1] ^= 0xFF
    with pytest.raises(CorruptionError, match="CRC"):
        decode_record(bytes(encoded))


def test_corrupted_header_magic_detected():
    encoded = bytearray(encode_record(Record(RecordType.PUT_VALUE, b"k", 1, b"v")))
    encoded[0] = 0x00
    with pytest.raises(CorruptionError, match="magic"):
        decode_record(bytes(encoded))


def test_truncated_header_detected():
    encoded = encode_record(Record(RecordType.PUT_VALUE, b"k", 1, b"v"))
    with pytest.raises(CorruptionError, match="truncated header"):
        decode_record(encoded[: HEADER_SIZE - 1])


def test_truncated_body_detected():
    encoded = encode_record(Record(RecordType.PUT_VALUE, b"k", 1, b"vvvv"))
    with pytest.raises(CorruptionError, match="truncated body"):
        decode_record(encoded[:-2])


def test_scan_records_sequential():
    records = [
        Record(RecordType.PUT_VALUE, f"k{i}".encode(), i, b"x" * i)
        for i in range(1, 6)
    ]
    image = b"".join(encode_record(r) for r in records)
    scanned = list(scan_records(image))
    assert [r for _o, r in scanned] == records
    offsets = [o for o, _r in scanned]
    assert offsets == sorted(offsets)


def test_scan_skips_page_padding():
    page = 256
    first = encode_record(Record(RecordType.PUT_VALUE, b"a", 1, b"1"))
    padded = first + b"\x00" * (page - len(first) % page)
    second = encode_record(Record(RecordType.PUT_VALUE, b"b", 2, b"2"))
    image = padded + second
    scanned = [r.key for _o, r in scan_records(image, page_size=page)]
    assert scanned == [b"a", b"b"]


def test_scan_without_page_size_stops_at_padding():
    first = encode_record(Record(RecordType.PUT_VALUE, b"a", 1, b"1"))
    image = first + b"\x00" * 100
    assert [r.key for _o, r in scan_records(image)] == [b"a"]


@given(
    key=st.binary(min_size=1, max_size=64),
    version=st.integers(min_value=0, max_value=2**64 - 1),
    value=st.binary(max_size=2048),
)
def test_property_roundtrip(key, version, value):
    record = Record(RecordType.PUT_VALUE, key, version, value)
    decoded, end = decode_record(encode_record(record))
    assert decoded == record
    assert end == HEADER_SIZE + len(key) + len(value)


@given(
    records=st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=16),
            st.integers(min_value=0, max_value=1000),
            st.binary(max_size=128),
        ),
        max_size=30,
    )
)
def test_property_scan_reconstructs_stream(records):
    built = [Record(RecordType.PUT_VALUE, k, v, d) for k, v, d in records]
    image = b"".join(encode_record(r) for r in built)
    assert [r for _o, r in scan_records(image)] == built


def test_torn_tail_tolerated_when_requested():
    records = [
        Record(RecordType.PUT_VALUE, b"whole", 1, b"x" * 50),
        Record(RecordType.PUT_VALUE, b"torn", 2, b"y" * 50),
    ]
    image = b"".join(encode_record(r) for r in records)
    torn = image[:-20]  # the crash cut the last record short
    survived = [r.key for _o, r in scan_records(torn, tolerate_torn_tail=True)]
    assert survived == [b"whole"]


def test_torn_tail_raises_by_default():
    from repro.errors import TruncatedRecordError

    image = encode_record(Record(RecordType.PUT_VALUE, b"k", 1, b"v" * 50))
    with pytest.raises(TruncatedRecordError):
        list(scan_records(image[:-5]))


def test_torn_header_tolerated_too():
    image = encode_record(Record(RecordType.PUT_VALUE, b"k", 1, b"v"))
    torn = image + image[:10]  # a header fragment at the tail
    survived = list(scan_records(torn, tolerate_torn_tail=True))
    assert len(survived) == 1


def test_crc_failure_still_raises_even_with_tolerance():
    image = bytearray(encode_record(Record(RecordType.PUT_VALUE, b"k", 1, b"vvvv")))
    image[-1] ^= 0xFF
    with pytest.raises(CorruptionError, match="CRC"):
        list(scan_records(bytes(image), tolerate_torn_tail=True))


# ----------------------------------------------------------------------
# scan_frames: the walk GC and recovery use, here on one piece (the
# general case); tests/qindb/test_frame_walk.py walks units' pieces
# ----------------------------------------------------------------------
PAGE = 256


def paged_image(records, flush_after=()):
    """Frames back-to-back, padded to a page boundary after the listed
    indices (what a flush of the block-aligned writer leaves behind)."""
    image = b""
    for index, record in enumerate(records):
        image += encode_record(record)
        if index in flush_after and len(image) % PAGE:
            image += b"\x00" * (PAGE - len(image) % PAGE)
    return image


def walk_both(image):
    """(frames, error) of the frame walk and of the record scan it must
    agree with, the latter reduced to frame tuples."""
    outcomes = []
    for walk in (
        lambda: scan_frames([image], PAGE)[0],
        lambda: [
            (offset, offset + record.encoded_size, int(record.type),
             record.key, record.version, record.sequence)
            for offset, record in scan_records(
                image, page_size=PAGE, tolerate_torn_tail=True
            )
        ],
    ):
        try:
            outcomes.append((walk(), None))
        except (CorruptionError, StorageError) as exc:
            outcomes.append((None, (type(exc), str(exc))))
    return outcomes


mixed_records = st.lists(
    st.tuples(
        st.sampled_from(list(RecordType)),
        st.binary(min_size=1, max_size=16),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.binary(max_size=300),
        st.integers(min_value=0, max_value=2**64 - 1),
    ),
    max_size=12,
)


@given(
    records=mixed_records,
    flush_after=st.sets(st.integers(min_value=0, max_value=11)),
    cut=st.integers(min_value=0, max_value=400),
    flip=st.one_of(st.none(), st.integers(min_value=0)),
)
def test_scan_frames_agrees_with_scan_records(records, flush_after, cut, flip):
    """Any image — padded, torn, or with one byte damaged — walks to the
    same frames or the same typed error as the record scan."""
    built = [
        Record(
            rtype, key, version,
            value if rtype is RecordType.PUT_VALUE else b"", sequence,
        )
        for rtype, key, version, value, sequence in records
    ]
    image = bytearray(paged_image(built, flush_after))
    del image[len(image) - min(cut, len(image)):]
    if flip is not None and image:
        image[flip % len(image)] ^= 0x41
    image = bytes(image)
    frames, records_seen = walk_both(image)
    assert frames == records_seen
    if frames[0] is not None:
        for offset, end, _rtype, key, _version, _sequence in frames[0]:
            assert image[offset + HEADER_SIZE:][:len(key)] == key
            assert decode_record(image[offset:end])[1] == end - offset


def test_scan_frames_walks_padding_and_torn_tail():
    records = [
        Record(RecordType.PUT_VALUE, b"a", 1, b"x" * 40, 1),
        Record(RecordType.DELETE, b"a", 1, b"", 2),
        Record(RecordType.PUT_DEDUP, b"b", 2, b"", 3),
    ]
    image = paged_image(records, flush_after={0})
    frames, heads, bodies, torn = scan_frames([image], PAGE)
    assert torn == 0
    assert [(f[2], f[3], f[4], f[5]) for f in frames] == [
        (r.type, r.key, r.version, r.sequence) for r in records
    ]
    assert frames[1][0] == PAGE  # resumed at the page boundary
    for frame, head, body, record in zip(frames, heads, bodies, records):
        assert image[frame[0]:frame[1]] == head + body == encode_record(record)
    # a torn body and a torn header both end the log, their bytes counted
    assert scan_frames([image[:-3]], PAGE)[0::3] == (
        frames[:2], len(image) - 3 - frames[2][0]
    )
    assert scan_frames([image + image[:10]], PAGE)[0::3] == (frames, 10)


def test_scan_frames_typed_errors():
    frame = encode_record(Record(RecordType.PUT_VALUE, b"k", 1, b"vvvv", 9))
    damaged = bytearray(frame)
    damaged[-1] ^= 0xFF
    with pytest.raises(CorruptionError, match="CRC mismatch"):
        scan_frames([frame + bytes(damaged)], PAGE)
    with pytest.raises(CorruptionError, match="bad magic"):
        scan_frames([frame + b"\x7f" + bytes(40)], PAGE)
    # a well-formed CRC over an unknown type, and over a value on a
    # value-less type: caught by the type checks, not the checksum
    with pytest.raises(CorruptionError, match="unknown record type 9"):
        scan_frames([encode_frame(9, b"k", b"", 1, 1)], PAGE)
    with pytest.raises(StorageError, match="DELETE records carry no value"):
        scan_frames([encode_frame(int(RecordType.DELETE), b"k", b"v", 1, 1)], PAGE)


# ----------------------------------------------------------------------
# decode_value: the read path's decoder, against decode_record
# ----------------------------------------------------------------------
def decode_raw(raw: bytes) -> bytes:
    """``decode_value`` of a frame held as a unit keeps it — its head
    and its body — and held as one piece: the same answer or error."""
    outcomes = []
    for pieces in ([raw[:HEAD_SIZE], raw[HEAD_SIZE:]], [raw]):
        try:
            outcomes.append(decode_value(pieces))
        except (CorruptionError, StorageError) as exc:
            outcomes.append(exc)
    split, whole = outcomes
    assert type(split) is type(whole) and (
        isinstance(split, Exception) or split == whole
    )
    if isinstance(split, Exception):
        raise split
    return split


@given(
    # 9 is no record type; any type may (wrongly) be framed with a value
    rtype=st.sampled_from([1, 2, 3, 9]),
    key=st.binary(min_size=1, max_size=16),
    value=st.binary(max_size=300),
    version=st.integers(min_value=0, max_value=2**64 - 1),
    sequence=st.integers(min_value=0, max_value=2**64 - 1),
    padding=st.integers(min_value=0, max_value=40),
    cut=st.integers(min_value=0, max_value=60),
    flip=st.one_of(st.none(), st.integers(min_value=0)),
)
def test_decode_value_agrees_with_decode_record(
    rtype, key, value, version, sequence, padding, cut, flip
):
    """A frame — whole, padded, torn, or with one byte damaged — decodes
    to the same value bytes or the same typed error class."""
    frame = bytearray(encode_frame(rtype, key, value, version, sequence))
    frame += b"\x00" * padding
    del frame[len(frame) - min(cut, len(frame)):]
    if flip is not None and frame:
        frame[flip % len(frame)] ^= 0x41
    frame = bytes(frame)
    outcomes = []
    for decode in (decode_raw, lambda raw: decode_record(raw)[0].value):
        try:
            outcomes.append(decode(frame))
        except (CorruptionError, StorageError) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]
    if flip is None and cut <= padding and rtype == 1:
        assert outcomes[0] == value and type(outcomes[0]) is bytes


def test_decode_value_typed_errors():
    """One pinned case per check, in ``decode_record``'s order."""
    from repro.errors import TruncatedRecordError

    good = encode_frame(1, b"key", b"value", 7, 9)
    assert decode_raw(good) == b"value"
    assert decode_raw(good + b"\x00" * 9) == b"value"
    assert decode_raw(encode_frame(2, b"key", b"", 7, 9)) == b""
    cases = [
        (good[: HEADER_SIZE - 1], TruncatedRecordError),  # torn header
        (b"\x00" + good[1:], CorruptionError),  # bad magic
        (good[:-1], TruncatedRecordError),  # torn body
        (good[:-1] + b"X", CorruptionError),  # CRC
        (encode_frame(9, b"key", b"", 7, 9), CorruptionError),  # type
        (encode_frame(3, b"key", b"v", 7, 9), StorageError),  # value-less
    ]
    for raw, error in cases:
        with pytest.raises(error) as caught:
            decode_raw(raw)
        assert type(caught.value) is error
        with pytest.raises(error):
            decode_record(raw)


# ----------------------------------------------------------------------
# Frame v2: head + shared body
# ----------------------------------------------------------------------
def test_frame_layout_is_head_then_body():
    """``magic(1) sequence(8) crc(4) | type(1) key_len(2) value_len(4)
    version(8) key value``, the CRC over body then sequence."""
    import struct
    import zlib

    frame = encode_frame(1, b"key", b"value", 7, 9)
    assert HEADER_SIZE == 28 and HEAD_SIZE == 13
    body = struct.pack("<BHLQ", 1, 3, 5, 7) + b"key" + b"value"
    crc = zlib.crc32(body + struct.pack("<Q", 9))
    assert frame == struct.pack("<BQL", 0xD1, 9, crc) + body
    # the body is the same bytes under any sequence
    assert encode_frame(1, b"key", b"value", 7, 10)[HEAD_SIZE:] == body


mixed_items = st.lists(
    st.tuples(
        st.binary(min_size=1, max_size=16),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.one_of(st.none(), st.binary(max_size=300)),
    ),
    max_size=12,
)


@given(items=mixed_items, first=st.integers(min_value=0, max_value=2**63))
def test_built_batch_frames_to_the_frames_of_encode_frame(items, first):
    batch = Bodies(items)
    assert list(batch) == items and Bodies.of(batch) is batch
    sequences = range(first, first + len(items))
    frames = [
        encode_frame(2 if value is None else 1, key, value or b"", version, seq)
        for (key, version, value), seq in zip(items, sequences)
    ]
    heads = frame_heads(sequences, batch.checksums)
    assert [head + body for head, body in zip(heads, batch.bodies)] == frames
    assert all(len(head) == HEAD_SIZE for head in heads)
    assert batch.dedup == [value is None for _k, _v, value in items]
    assert batch.item_keys == [(key, version) for key, version, _v in items]
    # a sub-batch is the batch of those items
    picked = list(range(0, len(items), 2))
    taken = batch.take(picked)
    rebuilt = Bodies([items[index] for index in picked])
    assert list(taken) == list(rebuilt)
    for column in Bodies.COLUMNS:
        assert getattr(taken, column) == getattr(rebuilt, column)


def test_builder_rejects_what_the_engine_always_rejected():
    for bad in ([(b"", 1, b"v")], [("text", 1, b"v")], [(b"k", -1, b"v")],
                [(b"k", 2**64, None)], [(b"k" * 70000, 1, b"v")]):
        with pytest.raises(StorageError):
            Bodies([(b"good", 1, b"v")] + bad)


@given(
    rtype=st.sampled_from([int(record_type) for record_type in RecordType]),
    key=st.binary(min_size=1, max_size=16),
    value=st.binary(max_size=300),
    version=st.integers(min_value=0, max_value=2**64 - 1),
    sequence=st.integers(min_value=0, max_value=2**64 - 1),
    position=st.integers(min_value=0, max_value=HEADER_SIZE - 1),
    mask=st.integers(min_value=1, max_value=255),
    padding=st.integers(min_value=0, max_value=600),
)
def test_one_damaged_header_byte_is_caught_or_harmless(
    rtype, key, value, version, sequence, position, mask, padding
):
    """Any single header byte — magic, sequence, crc, type, ``key_len``,
    ``value_len``, version — damaged: every reader raises a typed error
    or returns the right bytes, never wrong ones."""
    value = value if rtype == RecordType.PUT_VALUE else b""
    key = b"" if rtype == RecordType.RETIRE else key
    good = encode_frame(rtype, key, value, version, sequence)
    follower = encode_frame(1, b"next", b"n" * 20, version, 5)
    damaged = bytearray(good)
    damaged[position] ^= mask
    damaged = bytes(damaged) + b"\x00" * padding
    typed = (CorruptionError, StorageError)
    try:
        assert decode_raw(damaged) == value
    except typed:
        pass
    try:
        record, _end = decode_record(damaged)
        assert (record.key, record.value) == (key, value)
    except typed:
        pass
    # the walk may stop early at what looks like a torn tail, but a
    # frame it does return is a frame that was written
    written = [(int(rtype), key, version, sequence), (1, b"next", version, 5)]
    page = len(damaged) if padding else PAGE
    try:
        walked = scan_frames([damaged + follower], page)[0]
    except typed:
        walked = []
    for frame in walked:
        assert frame[2:] in written
