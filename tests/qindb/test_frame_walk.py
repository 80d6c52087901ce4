"""The segment walk against the record-at-a-time reference, on real units.

``scan_frames`` walks a segment as the pieces its unit hands back: a
native unit's head and body objects (kept zero-copy, in batch extents
or frame by frame), pads, a piece a crash cut, or the filesystem arm's
one piece per read.  Whatever the
layout — random frames of every type, flush pads, a crash cut at any
offset, one damaged byte anywhere (a zeroed magic byte included) — it
must return the frames and the torn-tail byte count that
``scan_records`` finds in the joined image, or raise the same typed
error.  Below, the zeroed-magic regressions at engine level: recovery
and GC refuse the damaged segment instead of losing a frame.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, StorageError
from repro.qindb.aof import _FileUnit
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.records import (
    HEAD_SIZE,
    MAGIC,
    Frames,
    RecordType,
    encode_frame,
    scan_frames,
    scan_records,
)
from repro.ssd.device import SimulatedSSD
from repro.ssd.files import BlockFileSystem
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import SSDGeometry
from repro.ssd.native import NativeBlockInterface

PAGE = 512


def device():
    return SimulatedSSD(
        SSDGeometry(block_count=64, pages_per_block=8, page_size=PAGE)
    )


def reference(image):
    """``(frames, torn)`` of the record scan over a joined image, or the
    typed error it raises: the torn bytes are what follows the last
    frame once the padding the scan accepted is stepped over."""
    try:
        frames = [
            (offset, offset + record.encoded_size, int(record.type),
             record.key, record.version, record.sequence)
            for offset, record in scan_records(
                image, page_size=PAGE, tolerate_torn_tail=True
            )
        ]
    except (CorruptionError, StorageError) as exc:
        return type(exc), str(exc)
    offset = frames[-1][1] if frames else 0
    while offset < len(image) and image[offset] == 0:
        offset = (offset // PAGE + 1) * PAGE
    return frames, max(len(image) - offset, 0)


def walk(pieces):
    """The walker's answer in :func:`reference`'s shape, plus its heads
    and bodies."""
    try:
        frames, heads, bodies, torn = scan_frames(pieces, PAGE)
    except (CorruptionError, StorageError) as exc:
        return (type(exc), str(exc)), None, None
    return (frames, torn), heads, bodies


frame_fields = st.tuples(
    st.sampled_from(list(RecordType)),
    st.binary(min_size=1, max_size=12),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.binary(max_size=260),
    st.one_of(st.just(0), st.integers(min_value=1, max_value=2**64 - 1)),
)
#: a batch of frames appended together, then maybe a flush pad
batches = st.lists(
    st.tuples(st.lists(frame_fields, min_size=1, max_size=5), st.booleans()),
    max_size=6,
)
#: ``(frame or stream position, byte in it, mask)``: a frame's magic
#: byte zeroed is drawn often, anything else at all sometimes
damages = st.one_of(
    st.none(),
    st.tuples(st.integers(min_value=0), st.just(0), st.just(MAGIC)),
    st.tuples(
        st.integers(min_value=0), st.integers(min_value=0),
        st.integers(min_value=1, max_value=255),
    ),
)


def built(fields):
    """One frame's head and body objects, as an engine hands them down."""
    rtype, key, version, value, sequence = fields
    value = value if rtype is RecordType.PUT_VALUE else b""
    key = b"" if rtype is RecordType.RETIRE else key
    frame = encode_frame(int(rtype), key, value, version, sequence)
    return frame[:HEAD_SIZE], frame[HEAD_SIZE:]


@settings(max_examples=300, deadline=None)
@given(batches=batches, crash=st.booleans(), cut=st.integers(min_value=0),
       damage=damages)
def test_walker_matches_the_record_scan_on_every_unit(batches, crash, cut, damage):
    frames = [[built(fields) for fields in batch] for batch, _pad in batches]
    flat = [frame for batch in frames for frame in batch]
    native = NativeBlockInterface(device()).open_unit("walk")
    files = _FileUnit(BlockFileSystem(FlashTranslationLayer(device())), "walk")
    starts = []  # each frame's offset in the native unit
    for index, (batch, (_fields, pad)) in enumerate(zip(frames, batches)):
        if index % 2:  # frame by frame, as chunks
            for head, body in batch:
                starts.append(native.append_many([head, body]))
        else:  # the batch as one extent, as the AOF appends it
            framed = Frames.of(*zip(*batch))
            offset = native.append_frames(framed, 0, len(batch))
            starts += [offset + start for start in framed.starts[:-1]]
        if pad:
            native.flush()
    damaged_frame = None
    if damage is not None and native.size:
        target, position, mask = damage
        if target % (len(flat) + 1) < len(flat):  # a byte of one frame
            damaged_frame = target % (len(flat) + 1)
            head, body = flat[damaged_frame]
            position %= len(head) + len(body)
            native.corrupt(starts[damaged_frame] + position, mask)
            frame = bytearray(head + body)
            frame[position] ^= mask
            flat[damaged_frame] = (bytes(frame[:HEAD_SIZE]), bytes(frame[HEAD_SIZE:]))
        else:  # anywhere in the native stream, pads included
            native.corrupt(position % native.size, mask)
    if flat:
        files.append_frames(Frames.of(*zip(*flat)), 0, len(flat))
    if crash:
        native.discard_unprogrammed()
    for unit in (native, files):
        pieces = unit.read_many([(0, cut % (unit.size + 1))])[0]
        image = b"".join(pieces)
        outcome, heads, bodies = walk(pieces)
        assert outcome == reference(image)
        if heads is None:
            continue
        for frame, head, body in zip(outcome[0], heads, bodies):
            assert head + body == image[frame[0]:frame[1]]
        if unit is native:
            # whole head and body pieces come back as the objects appended
            appended = dict(zip(starts, (pair for batch in frames for pair in batch)))
            for frame, head, body in zip(outcome[0], heads, bodies):
                if starts.index(frame[0]) != damaged_frame:
                    assert (head, body) == appended[frame[0]]
                    assert head is appended[frame[0]][0]
                    assert body is appended[frame[0]][1]


def test_walker_cuts_a_frame_held_as_one_piece_or_split_anywhere():
    """Layouts no engine writes still walk to the same frames."""
    frames = [built((RecordType.PUT_VALUE, b"k%d" % i, i, b"v" * 40 * i, i))
              for i in range(1, 5)]
    image = b"".join(head + body for head, body in frames)
    expected = scan_frames([image], PAGE)
    for split in range(0, len(image), 7):
        walked = scan_frames([image[:split], image[split:]], PAGE)
        assert walked[0::3] == expected[0::3]
        assert [h + b for h, b in zip(*walked[1:3])] == [h + b for h, b in frames]


# ----------------------------------------------------------------------
# A zeroed magic byte ahead of a flush pad is damage, not padding
# ----------------------------------------------------------------------
def engine_with_a_zeroed_magic(gc_enabled=False):
    """Two batches of ten puts, a flush after each, in a 4 KB segment,
    then one more put, which opens segment 1.  The magic byte of the
    first batch's last frame — the frame just ahead of the first flush
    pad, on the pad's page — is then zeroed on flash."""
    engine = QinDB(
        SimulatedSSD(
            SSDGeometry(block_count=256, pages_per_block=8, page_size=PAGE)
        ),
        config=QinDBConfig(
            segment_bytes=4096, gc_enabled=gc_enabled,
            gc_defer_min_free_blocks=0,
        ),
    )
    engine.put_batch([(b"a%02d" % i, 1, b"x" * 60) for i in range(10)])
    engine.flush()
    engine.put_batch([(b"b%02d" % i, 1, b"y" * 300) for i in range(10)])
    engine.flush()
    engine.put_batch([(b"c", 1, b"z")])
    (segment_id, offset, length), *_flags = engine.memtable.get(b"a09", 1)
    assert segment_id == 0 and engine.aofs.active_segment_id == 1
    assert (offset + length) % PAGE and offset // PAGE == (offset + length) // PAGE
    engine.aofs.segment(0)._unit.corrupt(offset, MAGIC)
    return engine


def test_recovery_refuses_a_zeroed_magic_byte():
    engine = engine_with_a_zeroed_magic()
    with pytest.raises(CorruptionError, match="bad magic 0x00"):
        engine.restart()


def test_collection_refuses_a_zeroed_magic_byte_with_the_engine_unchanged():
    engine = engine_with_a_zeroed_magic()

    def state():
        return (
            list(engine.memtable.items()), engine.gc_table.snapshot(),
            engine.aofs.bytes_appended,
            [s.segment_id for s in engine.aofs.segments], engine.gc_runs,
        )

    before = state()
    with pytest.raises(CorruptionError, match="bad magic 0x00"):
        engine.collect_segment(0)
    assert state() == before
    assert engine.get(b"a00", 1) == b"x" * 60
    with pytest.raises(CorruptionError):
        engine.get(b"a09", 1)  # the damaged frame, still where it was


def test_lazy_gc_quarantines_a_victim_with_a_zeroed_magic_byte():
    engine = engine_with_a_zeroed_magic(gc_enabled=True)
    assert engine.gc_runs == 0
    engine.delete_batch(
        [(b"a%02d" % i, 1) for i in range(9)]
        + [(b"b%02d" % i, 1) for i in range(10)]
    )
    assert engine.gc_quarantined == {0}
    assert engine.gc_corrupt_victims == 1 and engine.gc_runs == 0
    assert engine.memtable.get(b"a09", 1)[0][0] == 0
    with pytest.raises(CorruptionError):
        engine.get(b"a09", 1)
