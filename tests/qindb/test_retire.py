"""Evicting a whole version: ``QinDB.retire_version`` and its RETIRE frame.

A retirement flags every item of the version's run deleted, books the
run's bytes dead per segment and writes one ``RETIRE`` frame.  These
tests pin what it costs, how GC carries the frame, and what recovery
makes of it — torn, moved past the puts it kills, or followed by a key
first put into the retired version.  A re-put of a retired item is
refused.
"""

import pytest

from repro.errors import CorruptionError, DuplicateItemError
from repro.qindb.checkpoint import Checkpoint, crash, recover
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.records import HEADER_SIZE, RecordType, encode_frame
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry

PAGE = 4096


def tiny_engine(**config) -> QinDB:
    """512 B pages, 4 KB erase blocks and one-block segments."""
    geometry = SSDGeometry(
        block_count=512, pages_per_block=8, page_size=512, op_ratio=0.07
    )
    return QinDB(
        SimulatedSSD(geometry),
        config=QinDBConfig(segment_bytes=4 * 1024, **config),
    )


def engine_state(engine):
    """What a refused put must leave as it found."""
    return (
        list(engine.memtable.items()),
        engine.gc_table.snapshot(),
        engine.aofs.bytes_appended,
        engine._sequence,
    )


def retire_frames(engine):
    """``(segment_id, version)`` of every RETIRE frame stored."""
    found = []
    for segment in engine.aofs.segments:
        frames = segment.read_frames()[0]
        found += [
            (segment.segment_id, frame[4])
            for frame in frames
            if frame[2] == RecordType.RETIRE
        ]
    return found


def test_retire_version_is_one_frame_one_search_and_dead_bytes():
    engine = QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
    )
    engine.put_batch([(b"k%03d" % i, 1, b"v" * 100) for i in range(50)])
    engine.put_batch([(b"k%03d" % i, 2, None) for i in range(50)])
    engine.delete_batch([(b"k000", 1), (b"k001", 1)])
    appended = engine.aofs.bytes_appended
    dead = engine.gc_table.entry(0).dead_bytes
    assert engine.retire_version(1) == 48
    assert engine.memtable.last_search_steps == len(engine.memtable).bit_length()
    assert engine.aofs.bytes_appended - appended == HEADER_SIZE  # one frame
    item_bytes = 48 * (HEADER_SIZE + 4 + 100)
    assert engine.gc_table.entry(0).dead_bytes - dead == item_bytes + HEADER_SIZE
    assert not any(engine.exists(b"k%03d" % i, 1) for i in range(50))
    # the deleted items still resolve a value-less newer version
    assert engine.get(b"k010", 2) == b"v" * 100
    assert retire_frames(engine) == [(0, 1)]
    # nothing left to retire: no frame, and an unknown version likewise
    assert engine.retire_version(1) == 0
    assert engine.retire_version(9) == 0
    assert engine.aofs.bytes_appended - appended == HEADER_SIZE


def torn_eviction(cut, evict):
    """Recover an engine whose last frame — the one ``evict`` appends —
    is cut ``cut`` bytes in by the crash."""
    engine = QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
    )
    gone = (b"gone", 7, b"g" * 50)
    ahead = HEADER_SIZE + len(gone[0]) + len(gone[2]) + HEADER_SIZE + 4
    engine.put_batch([(b"fill", 6, b"f" * (2 * PAGE - cut - ahead)), gone])
    assert engine.aofs.bytes_appended == 2 * PAGE - cut
    evict(engine)
    return engine.restart()


@pytest.mark.parametrize("cut", range(HEADER_SIZE + 1))
def test_torn_retire_is_lost_as_a_torn_tombstone_is(cut):
    """A crash mid-``RETIRE`` loses the eviction, as one mid-tombstone
    loses the delete: the item is live again, the torn bytes are dead and
    the segment is sealed.  A whole frame keeps the version retired."""
    retired = torn_eviction(cut, lambda engine: engine.retire_version(7))
    tombstoned = torn_eviction(
        cut, lambda engine: engine.delete_batch([(b"gone", 7)])
    )
    dead = retired.gc_table.entry(0).dead_bytes
    if cut < HEADER_SIZE:  # both frames torn
        assert retired.exists(b"gone", 7) and tombstoned.exists(b"gone", 7)
        assert dead == tombstoned.gc_table.entry(0).dead_bytes == cut
        assert (retired.aofs.active_segment_id is None) == bool(cut)
        assert (tombstoned.aofs.active_segment_id is None) == bool(cut)
    else:  # the RETIRE frame is whole
        assert not retired.exists(b"gone", 7)
        assert retired.holds(b"gone", 7)
        assert dead == HEADER_SIZE + (HEADER_SIZE + 4 + 50)
    assert retired.get(b"fill", 6)[:1] == b"f"


def test_gc_carries_retire_while_a_referenced_base_survives():
    """Version 1's base ``k`` is referenced by value-less ``k/2``: GC
    moves it, so the version keeps a run and its RETIRE frame is carried.
    A full scan then keeps version 1 retired and ``k/2`` reading its base.
    """
    engine = tiny_engine(gc_enabled=False)
    base = b"B" * 600
    fillers = range(4)
    engine.put_batch([(b"k", 1, base)] + [(b"f%d" % i, 1, b"x" * 600) for i in fillers])
    engine.put_batch([(b"k", 2, None)] + [(b"f%d" % i, 2, b"y" * 600) for i in fillers])
    assert engine.retire_version(1) == 5
    engine.put_batch([(b"g%d" % i, 3, b"z" * 600) for i in range(8)])
    [(retire_segment, retired)] = retire_frames(engine)
    assert retired == 1
    base_segment = engine.memtable.get(b"k", 1)[0][0]
    active = engine.aofs.active_segment_id
    assert len({base_segment, retire_segment, active}) == 3

    engine.collect_segment(base_segment)
    moved_to = engine.memtable.get(b"k", 1)[0][0]
    assert moved_to != base_segment and engine.holds(b"k", 1)
    assert not any(engine.holds(b"f%d" % i, 1) for i in range(4))

    engine.collect_segment(retire_segment)
    carried = retire_frames(engine)
    assert [version for _segment, version in carried] == [1]
    assert carried[0][0] != retire_segment

    engine.flush()
    recovered = recover(crash(engine), config=engine.config)
    assert not recovered.exists(b"k", 1)
    assert recovered.holds(b"k", 1)
    assert recovered.get(b"k", 2) == base
    assert not any(recovered.holds(b"f%d" % i, 1) for i in range(4))
    assert all(recovered.exists(b"f%d" % i, 2) for i in range(4))


def test_retire_is_dropped_once_its_version_has_no_run():
    engine = tiny_engine(gc_enabled=False)
    engine.put_batch([(b"f%d" % i, 1, b"x" * 600) for i in range(5)])
    engine.retire_version(1)
    engine.put_batch([(b"g%d" % i, 2, b"z" * 600) for i in range(8)])
    for segment in list(engine.aofs.segments):
        if segment.segment_id != engine.aofs.active_segment_id:
            engine.collect_segment(segment.segment_id)
    assert retire_frames(engine) == []
    assert len(engine.memtable) == 8


@pytest.mark.parametrize("checkpointed", [False, True])
def test_re_put_after_retire_stays_live(checkpointed):
    """A RETIRE kills only puts older than itself, on a full scan and past
    a checkpoint's watermark alike: a key first put into the version
    after it stays live."""
    engine = QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
    )
    engine.put_batch([(b"a", 1, b"old-a"), (b"b", 1, b"old-b")])
    checkpoint = Checkpoint.write(engine) if checkpointed else None
    assert engine.retire_version(1) == 2
    engine.put_batch([(b"c", 1, b"new-c")])
    assert engine.get(b"c", 1) == b"new-c"
    engine.flush()
    recovered = recover(crash(engine), config=engine.config, checkpoint=checkpoint)
    assert recovered.get(b"c", 1) == b"new-c"
    for key in (b"a", b"b"):
        assert not recovered.exists(key, 1) and recovered.holds(key, 1)
    # every retired byte counts dead
    stats = recovered.gc_table.entry(0)
    assert stats.live_bytes == HEADER_SIZE + 1 + len(b"new-c")


def test_re_put_stays_live_when_gc_carries_its_retire_past_it():
    """GC carries the RETIRE into a segment after that of a key first put
    into the retired version, so a full scan meets that put first: the
    RETIRE then kills only the items older than itself (the
    ``retire(before=...)`` pass), and the new key stays live."""
    engine = tiny_engine(gc_enabled=False)
    old = [(b"a", 1, b"A" * 600), (b"b", 1, b"B" * 600), (b"c", 1, b"C" * 600)]
    engine.put_batch(old + [(b"f%d" % i, 2, b"x" * 600) for i in range(4)])
    assert engine.retire_version(1) == 3
    engine.put_batch([(b"g%d" % i, 2, b"y" * 600) for i in range(7)])
    engine.put_batch([(b"d", 1, b"new-d")])
    engine.put_batch([(b"h%d" % i, 2, b"z" * 600) for i in range(8)])
    [(retire_segment, _version)] = retire_frames(engine)
    new_segment = engine.memtable.get(b"d", 1)[0][0]
    assert retire_segment < new_segment < engine.aofs.active_segment_id
    assert engine.memtable.get(b"b", 1)[0][0] != retire_segment

    engine.collect_segment(retire_segment)
    [(carried_to, _version)] = retire_frames(engine)
    assert carried_to > new_segment

    engine.flush()
    recovered = recover(crash(engine), config=engine.config)
    assert recovered.get(b"d", 1) == b"new-d"
    assert not recovered.exists(b"a", 1) and recovered.holds(b"a", 1)
    assert not recovered.exists(b"b", 1) and recovered.holds(b"b", 1)
    assert not recovered.exists(b"c", 1) and recovered.holds(b"c", 1)
    assert all(recovered.exists(b"f%d" % i, 2) for i in range(3))
    assert all(recovered.exists(b"g%d" % i, 2) for i in range(6))


def test_corrupt_victim_holding_a_retire_is_quarantined_untouched():
    """Verification precedes mutation for a victim whose RETIRE frame is
    the damaged one: an explicit collection raises with nothing changed,
    the automatic one quarantines the victim."""
    engine = tiny_engine()
    engine.reads_in_flight = 1  # defer GC while the victim is made
    engine.put_batch([(b"f%d" % i, 1, b"x" * 800) for i in range(4)])
    engine.retire_version(1)
    engine.put_batch([(b"live", 2, b"y" * 500), (b"next", 2, b"y" * 500)])
    engine.put_batch([(b"roll", 2, b"r")])  # opens segment 1
    engine.reads_in_flight = 0
    victim = 0
    assert victim != engine.aofs.active_segment_id
    assert engine.gc_table.victims() == [victim]
    segment = engine.aofs.segment(victim)
    frames, heads, bodies, _torn = segment.read_frames()
    [at] = [i for i, frame in enumerate(frames) if frame[2] == RecordType.RETIRE]
    retire = frames[at]
    assert heads[at] + bodies[at] == encode_frame(
        int(RecordType.RETIRE), b"", b"", 1, retire[5]
    )
    segment._unit.corrupt(retire[1] - 1, 0x10)

    def state():
        return (
            list(engine.memtable.items()),
            engine.gc_table.snapshot(),
            engine.aofs.bytes_appended,
            engine.aofs.segment_count,
            engine.gc_runs,
        )

    before = state()
    with pytest.raises(CorruptionError):
        engine.collect_segment(victim)
    assert state() == before
    engine.put_batch([(b"later", 2, b"z" * 10)])
    assert engine.gc_corrupt_victims == 1
    assert victim in engine.gc_quarantined
    assert engine.aofs.segment(victim) is segment
    assert not any(engine.exists(b"f%d" % i, 1) for i in range(4))
    assert engine.get(b"live", 2) == b"y" * 500


def test_retired_re_put_stays_retired_after_gc_and_full_scan():
    """The RETIRE twin of the deleted re-put: the re-put is refused with
    the engine unchanged, so once GC drops the retired item and its
    RETIRE no older copy of it is left for a full scan to install."""
    engine = tiny_engine()
    filler = [(b"f%d" % index, 2, b"x" * 600) for index in range(8)]
    engine.put_batch([(b"k", 1, b"A" * 600)] + filler)  # seals segment 0
    before = engine_state(engine)
    with pytest.raises(DuplicateItemError):
        engine.put_batch([(b"k", 1, b"B" * 600)])
    assert engine_state(engine) == before
    engine.retire_version(1)
    engine.put_batch([(b"g%d" % index, 2, b"x" * 600) for index in range(8)])
    (segment_id, _offset, _length), _r, _deleted, _s = engine.memtable.get(
        b"k", 1
    )
    engine.collect_segment(segment_id)
    assert not engine.holds(b"k", 1)
    engine.flush()
    recovered = recover(crash(engine), config=engine.config)
    assert not recovered.exists(b"k", 1)
