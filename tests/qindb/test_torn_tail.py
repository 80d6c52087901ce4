"""Crashes that cut a frame short: recovery, and what follows it.

A power failure keeps whole programmed pages, so the last frame on flash
can be any prefix of itself.  These tests put the page boundary on every
byte of the last three frames of a log in turn and check that recovery
keeps each whole frame, resurrects nothing past the cut, and leaves an
engine that writes, deletes, collects and recovers again like any other.
"""

import pytest

from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.records import HEAD_SIZE, HEADER_SIZE, RecordType, encode_frame

PAGE = 4096


def small_engine():
    return QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
    )


def stored(engine):
    """Every live ``(key, version) -> value`` the engine serves."""
    return {
        (key, version): value
        for key, version, value in engine.scan(b"", b"\xff")
    }


def test_append_after_torn_tail_recovers_twice():
    """ROADMAP 4(a): a frame torn at the page boundary used to stay in
    front of the recovered engine's next append, and the second recovery
    read the new frames as the torn frame's body (``CorruptionError: CRC
    mismatch for record at offset 11988`` on the parent)."""
    engine = QinDB.with_capacity(64 * 1024 * 1024)
    first = [(b"a%04d" % i, 1, bytes([i]) * 300) for i in range(40)]
    engine.put_batch(first)
    engine = engine.restart()
    # three pages were programmed: 36 whole frames, the 37th torn
    assert len(engine.memtable) == 36
    torn_segment = engine.aofs.segments[0]
    torn_bytes = torn_segment.size - 36 * (HEADER_SIZE + 5 + 300)
    assert 0 < torn_bytes < HEADER_SIZE + 5 + 300
    # the torn bytes are dead weight, and the segment takes no more writes
    assert engine.gc_table.entry(torn_segment.segment_id).dead_bytes == torn_bytes
    assert engine.aofs.active_segment_id is None

    second = [(b"b%04d" % i, 1, bytes([i + 100]) * 300) for i in range(40)]
    engine.put_batch(second)
    assert torn_segment.size == 3 * PAGE  # nothing landed behind the tear
    engine = engine.restart()  # tears the second batch the same way
    kept = first[:36] + second[:36]
    assert stored(engine) == {(k, v): value for k, v, value in kept}

    third = [(b"c%04d" % i, 1, bytes([i + 200]) * 300) for i in range(40)]
    engine.put_batch(third)
    engine.flush()
    engine = engine.restart()
    assert stored(engine) == {(k, v): value for k, v, value in kept + third}
    assert engine.aofs.segment_count == 3


def gc_rows(engine):
    return {
        segment.segment_id: (
            engine.gc_table.entry(segment.segment_id).total_bytes,
            engine.gc_table.entry(segment.segment_id).dead_bytes,
        )
        for segment in engine.aofs.segments
    }


def test_checkpoint_behind_a_sealed_torn_segment_replays_nothing_twice():
    """Between a torn-tail recovery and the next append no segment is
    active.  A checkpoint written then must still take the log's end as
    its watermark: with an empty-log watermark the next recovery loaded
    the checkpoint rows and replayed every segment on top of them, so
    each frame was booked twice and once dead — healthy segments read
    half dead and were collected for nothing."""
    from repro.qindb.checkpoint import Checkpoint, crash, recover

    engine = QinDB.with_capacity(64 * 1024 * 1024)
    items = [(b"a%04d" % i, 1, bytes([i]) * 300) for i in range(40)]
    engine.put_batch(items)
    engine = engine.restart()
    assert engine.aofs.active_segment_id is None
    scanned = gc_rows(engine)
    torn_segment = engine.aofs.segments[0]
    checkpoint = Checkpoint.write(engine)
    assert (checkpoint.watermark_segment, checkpoint.watermark_size) == (
        torn_segment.segment_id, torn_segment.size,
    )

    aofs = crash(engine)
    from_checkpoint = recover(aofs, engine.config, checkpoint=checkpoint)
    assert gc_rows(from_checkpoint) == scanned
    assert from_checkpoint.gc_table.victims() == []
    assert stored(from_checkpoint) == {(k, v): value for k, v, value in items[:36]}
    # and the log goes on past the watermark as after any checkpoint
    from_checkpoint.put_batch([(b"later", 1, b"x" * 10)])
    from_checkpoint.flush()
    again = recover(crash(from_checkpoint), engine.config, checkpoint=checkpoint)
    assert again.get(b"later", 1) == b"x" * 10
    assert gc_rows(again)[torn_segment.segment_id] == scanned[torn_segment.segment_id]


# ----------------------------------------------------------------------
# Crash at every prefix of a frame
# ----------------------------------------------------------------------
#: the last three frames of the log: a value, a deduplicated marker
#: resolving to it, and another value
TAIL = [
    (b"tail1", 7, b"T" * 40),
    (b"tail1", 8, None),
    (b"tail3", 7, b"U" * 40),
]
EARLIER = [(b"keep1", 7, b"k" * 90), (b"keep2", 7, b"l" * 60)]
LEAD = (b"lead0", 7, b"m" * 33)
FILLER_KEY = b"fill0"


def frame_length(item):
    key, _version, value = item
    return HEADER_SIZE + len(key) + len(value or b"")


TAIL_LENGTHS = [frame_length(item) for item in TAIL]
TAIL_BYTES = sum(TAIL_LENGTHS)


def offset_name(cut):
    """Which field of which tail frame the cut lands in."""
    for index, (item, length) in enumerate(zip(TAIL, TAIL_LENGTHS)):
        if cut < length or (cut == length and index == len(TAIL) - 1):
            bounds = [
                (0, "before-head"), (1, "sequence"), (9, "crc"),
                (HEAD_SIZE, "body-head"), (HEADER_SIZE, "key"),
                (HEADER_SIZE + len(item[0]), "value"), (length, "frame-end"),
            ]
            field = [name for start, name in bounds if cut >= start][-1]
            return f"frame{index}-{field}-{cut}"
        cut -= length
    raise AssertionError(cut)


def log_cut_at(cut):
    """An engine whose log ends with :data:`TAIL`, written in three
    batches, with the last page boundary ``cut`` bytes into the tail —
    so a crash keeps exactly that prefix of it."""
    ahead = sum(map(frame_length, EARLIER)) + frame_length(LEAD)
    filler_value = 2 * PAGE - cut - ahead - HEADER_SIZE - len(FILLER_KEY)
    engine = small_engine()
    engine.put_batch([(FILLER_KEY, 7, b"f" * filler_value)])
    engine.put_batch(EARLIER)
    engine.put_batch([LEAD] + TAIL)
    assert engine.aofs.segments[0].size == 2 * PAGE - cut + TAIL_BYTES
    return engine, [(FILLER_KEY, 7, b"f" * filler_value)] + EARLIER + [LEAD]


@pytest.mark.parametrize(
    "cut", range(TAIL_BYTES + 1), ids=offset_name
)
def test_crash_at_every_prefix_of_the_last_frames(cut):
    engine, ahead = log_cut_at(cut)
    engine = engine.restart()

    # every whole frame is readable with its value; nothing past the cut
    whole = [
        item
        for index, item in enumerate(TAIL)
        if sum(TAIL_LENGTHS[: index + 1]) <= cut
    ]
    model = {(k, v): value for k, v, value in ahead + whole}
    if (b"tail1", 8) in model:
        model[b"tail1", 8] = model[b"tail1", 7]  # the dedup traceback
    assert stored(engine) == model
    lost = [(k, v) for k, v, _value in TAIL if (k, v) not in model]
    assert engine.get_batch(lost) == [None] * len(lost)
    assert not any(engine.holds(k, v) for k, v in lost)
    torn = cut - sum(map(frame_length, whole))
    segment = engine.aofs.segments[0]
    assert engine.gc_table.entry(segment.segment_id).dead_bytes == torn
    assert (engine.aofs.active_segment_id is None) == bool(torn)

    # the recovered engine is an engine: write, delete, collect, recover
    engine.put_batch(
        [(b"new01", 9, b"n" * 70), (b"new02", 7, b"fresh"), (b"keep1", 9, None)]
    )
    engine.delete_batch([(b"keep2", 7), (b"lead0", 7)])
    model[b"new01", 9] = b"n" * 70
    model[b"new02", 7] = b"fresh"
    model[b"keep1", 9] = model[b"keep1", 7]  # the dedup traceback
    del model[b"keep2", 7], model[b"lead0", 7]
    for old in engine.aofs.segments:
        if old.segment_id != engine.aofs.active_segment_id:
            engine.collect_segment(old.segment_id)
    assert stored(engine) == model
    engine.flush()
    engine = engine.restart()
    assert stored(engine) == model


def test_tail_frames_are_what_the_cuts_assume():
    """The offsets above are those of real frames."""
    engine, _ahead = log_cut_at(0)
    engine.flush()
    frames, heads, bodies, torn = engine.aofs.segments[0].read_frames()
    assert len(frames) == 7 and torn == 0
    for frame, head, body, (key, version, value) in zip(
        frames[-3:], heads[-3:], bodies[-3:], TAIL
    ):
        rtype = RecordType.PUT_DEDUP if value is None else RecordType.PUT_VALUE
        assert head + body == encode_frame(
            int(rtype), key, value or b"", version, frame[5]
        )
    assert frames[-3][0] == 2 * PAGE
