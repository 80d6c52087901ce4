"""Differential test: retire and GC made once for replicas that hold alike.

Nine replicas take every batch as one shared object, as the fleet's
slices are, so they hold one run per version, frame alike, and their
segments hold the very same extents: a victim is walked once for all of
them, its survivors decided once, and a retire, a collection's drops
and its relocation each made once and handed on.  Beside each replica is
a private twin that takes its own copy of every batch and so shares
nothing with anyone: the same code, every walk and write made for
itself alone.  Replicas and twins go through puts, deletes, retires, GC
polls and explicit collections while single replicas diverge — one
misses a batch and takes a batch of the same shape in its place, one
flushes its fill buffer early, one has its victim damaged, one crashes
and recovers by the full scan — and after every step each replica must
equal its twin: memtable items, every segment's bytes, the GC table,
and the device counters and clock (sharing charges nothing
differently).
"""

from __future__ import annotations

import dataclasses
from array import array
from itertools import count

import pytest

from repro.errors import CorruptionError
from repro.qindb.checkpoint import crash, recover
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.memtable import ItemColumns, Memtable
from repro.qindb.records import Bodies, FrameWalk, RecordType
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry

REPLICAS = 9
#: the replicas that never diverge
ALIKE = (2, 5, 6, 7, 8)


def small_engine() -> QinDB:
    """2 KB erase blocks and one-block segments: segments seal and GC
    polls collect within a few batches."""
    geometry = SSDGeometry(
        block_count=512, pages_per_block=4, page_size=512, op_ratio=0.07
    )
    return QinDB(
        SimulatedSSD(geometry),
        config=QinDBConfig(
            segment_bytes=2 * 1024,
            gc_occupancy_threshold=0.5,
            gc_defer_min_free_blocks=0,
        ),
    )


def triples(version: int, tag: str, size: int = 6) -> list:
    """A batch of one version, some records value-less past version 1."""
    return [
        (
            b"%s-%d" % (tag.encode(), index), version,
            None if version > 1 and index % 3 == 2
            else bytes([version, index]) * (40 + 23 * index),
        )
        for index in range(size)
    ]


def image(segment) -> bytes:
    """The segment's bytes, from its extents: uncharged."""
    return b"".join(
        b"".join(pieces[stride * first : stride * stop])
        for _at, pieces, _starts, first, stop, stride in segment._unit.extents
    )


def state(engine: QinDB) -> tuple:
    memtable = engine.memtable
    return (
        list(memtable.items()), len(memtable), memtable.approximate_bytes,
        [(each.segment_id, image(each)) for each in engine.aofs.segments],
        engine.aofs.active_segment_id,
        {
            segment_id: (row.total_bytes, row.dead_bytes)
            for segment_id, row in engine.gc_table._segments.items()
        },
        dataclasses.asdict(engine.device.counters), engine.device.now,
        engine.gc_runs, engine.gc_bytes_reappended,
        sorted(engine.gc_quarantined), engine.gc_corrupt_victims,
    )


def sealed(engine: QinDB) -> list:
    active = engine.aofs.active_segment_id
    return [
        segment.segment_id for segment in engine.aofs.segments
        if segment.segment_id != active
    ]


class Fleet:
    """Nine replicas and their private twins."""

    def __init__(self) -> None:
        self.engines = [small_engine() for _ in range(REPLICAS)]
        self.twins = [small_engine() for _ in range(REPLICAS)]

    def pairs(self, which=range(REPLICAS)):
        return [(self.engines[index], self.twins[index]) for index in which]

    def check(self) -> None:
        for index, (engine, twin) in enumerate(self.pairs()):
            assert state(engine) == state(twin), index

    def put(self, items: list, which=range(REPLICAS)) -> None:
        """One batch object for the replicas, a copy of its own for
        each twin."""
        batch = Bodies(items)
        for engine, twin in self.pairs(which):
            engine.put_batch(batch)
            twin.put_batch(Bodies(list(items)))
        self.check()

    def each(self, act, which=range(REPLICAS)) -> list:
        """``act`` on each replica and its twin: the same answer, or the
        same error."""
        answers = []
        for engine, twin in self.pairs(which):
            outcomes = []
            for target in (engine, twin):
                try:
                    outcomes.append(act(target))
                except CorruptionError as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1]
            answers.append(outcomes[0])
        self.check()
        return answers

    def collect(self, which=range(REPLICAS)) -> list:
        """Every replica collects its oldest sealed segment by hand."""
        def oldest(engine):
            victims = sealed(engine)
            if victims:
                engine.collect_segment(victims[0])
                return victims[0]
            return None

        return self.each(oldest, which)


def scans(engines) -> tuple:
    return (
        sum(engine.aofs.scans.verified for engine in engines),
        sum(engine.aofs.scans.shared for engine in engines),
    )


def test_replicas_collect_and_retire_as_their_private_twins():
    fleet = Fleet()
    tags = (f"t{number}" for number in count())
    for _ in range(3):
        fleet.put(triples(1, next(tags)))
    # Replica 0 misses a batch and takes one of the same shape in its
    # place (equal frame count and ranges, other pieces), then the one
    # it missed.
    missed, other = triples(2, next(tags)), triples(2, "swap")
    fleet.put(missed, range(1, REPLICAS))
    fleet.put(other, [0])
    fleet.put(missed, [0])
    # Replica 1 pads its fill buffer early: its pages lie elsewhere.
    fleet.each(lambda engine: engine.flush(), [1])
    for _ in range(3):
        fleet.put(triples(2, next(tags)))
    assert fleet.each(lambda engine: engine.retire_version(1)) == [18] * 9
    fleet.put(triples(3, next(tags)))
    fleet.collect()
    fleet.collect()
    # The alike replicas hold one run per version.
    for version in (2, 3):
        runs = {id(fleet.engines[i].memtable._runs[version][0]) for i in ALIKE}
        assert len(runs) == 1, version
    alike = [fleet.engines[index] for index in ALIKE]
    verified, shared = scans(alike)
    assert verified and shared >= 4 * verified  # one walk per victim
    assert scans(fleet.twins)[1] == 0  # nothing to share


def test_a_damaged_victim_quarantines_on_its_replica_alone():
    fleet = Fleet()
    for tag in ("a", "b", "c"):
        fleet.put(triples(1, tag))
    for tag in ("d", "e"):
        fleet.put(triples(2, tag))
    victim = sealed(fleet.engines[0])[0]
    for target in fleet.pairs([3])[0]:
        target.aofs.segment(victim)._unit.corrupt(5, 0x20)
    # Retiring version 1 kills the victim: each GC poll collects it but
    # replica 3's, which meets the damage and quarantines it.
    fleet.each(lambda engine: engine.retire_version(1))
    for index, engine in enumerate(fleet.engines):
        if index == 3:
            assert engine.gc_quarantined == {victim}
            assert victim in sealed(engine)
        else:
            assert not engine.gc_quarantined
            assert victim not in sealed(engine)
    # An explicit collection still raises on the damaged one alone.
    with pytest.raises(CorruptionError):
        fleet.engines[3].collect_segment(victim)
    verified, shared = scans(fleet.engines)
    assert shared and verified < shared


def test_a_crashed_replica_recovers_as_its_twin_and_walks_with_the_rest():
    fleet = Fleet()
    for tag in ("a", "b", "c", "d"):
        fleet.put(triples(1, tag))
    fleet.put(triples(2, "e"))
    for index in (4,):
        fleet.engines[index] = recover(
            crash(fleet.engines[index]), config=fleet.engines[index].config
        )
        fleet.twins[index] = recover(
            crash(fleet.twins[index]), config=fleet.twins[index].config
        )
    fleet.check()
    # The full scan walked the replica's sealed segments as the others
    # hold them: taken from nobody yet, but the others take them now.
    before = fleet.engines[4].aofs.scans.shared
    fleet.put(triples(2, "f"))
    fleet.each(lambda engine: engine.retire_version(1))
    fleet.collect()
    fleet.put(triples(3, "g"))
    assert fleet.engines[4].aofs.scans.shared >= before
    assert scans(fleet.engines)[1] > 0


def test_a_carried_tombstone_moves_alike_on_every_replica():
    fleet = Fleet()
    fleet.put(triples(1, "a"))
    fleet.put(triples(1, "b"))
    fleet.each(lambda engine: engine.delete_batch([(b"a-1", 1), (b"a-4", 1)]))
    fleet.put(triples(2, "c"))
    fleet.put(triples(2, "d"))
    # Collect the tombstones' segment while their put frames still lie
    # in an older one: they are carried, dead, to the active segment.
    def collect_tombstones(engine):
        for segment_id in sealed(engine):
            frames = engine.aofs.segment(segment_id).read_frames()[0]
            if any(frame[2] == RecordType.DELETE for frame in frames):
                if segment_id != sealed(engine)[0]:
                    engine.collect_segment(segment_id)
                    return segment_id
        return None

    assert None not in fleet.each(collect_tombstones)

    def tombstones(engine):
        return sorted(
            frame[3] for segment in engine.aofs.segments
            for frame in segment.read_frames()[0]
            if frame[2] == RecordType.DELETE
        )

    assert fleet.each(tombstones) == [[b"a-1", b"a-4"]] * REPLICAS


def test_a_decision_is_handed_on_only_to_an_equal_ask():
    """Memtables holding one run hand each other a collection's decision
    or a retire only when they see as many of its slots and ask about
    the same segment, or retire below the same sequence."""
    def columns(*values):
        return array("q", values)

    memtables = [Memtable() for _ in range(4)]
    first = ItemColumns([(b"k0", 1), (b"k1", 1)], bytes(2))
    located = (columns(1, 2), columns(0, 0), columns(0, 40), columns(40, 40))
    for memtable in memtables:
        memtable.put_batch(first, *located)
    run = memtables[0]._runs[1][0]
    later = ItemColumns([(b"k2", 1)], bytes(1))
    memtables[0].put_batch(later, *map(columns, (3, 0, 80, 40)))
    assert all(memtable._runs[1][0] is run for memtable in memtables)
    walk = FrameWalk([
        (40 * index, 40 * index + 40, int(RecordType.PUT_VALUE),
         b"k%d" % index, 1, index + 1)
        for index in range(3)
    ])
    # The frontier sees three slots, the rest two; segment 1 holds none.
    assert memtables[0].survivors(0, walk)[0] == [0, 1, 2]
    assert memtables[1].survivors(0, walk)[0] == [0, 1]
    assert memtables[2].survivors(1, walk)[0] == []
    assert memtables[1].retire(1, before=2) == (1, {0: 40})
    assert memtables[0].retire(1) == (3, {0: 120})
    assert memtables[2].retire(1) == (2, {0: 80})
    assert memtables[3].retire(1, before=2) == (1, {0: 40})
    assert memtables[3]._runs[1][0] is memtables[1]._runs[1][0]


def test_a_decision_is_not_reused_once_its_run_was_written_in_place():
    """A survivors decision names the stamp of every run it read, and a
    write in place forgets what the run handed on."""
    first, second = Memtable(), Memtable()
    items = ItemColumns([(b"k0", 1), (b"k1", 1)], bytes(2))
    located = [
        array("q", values) for values in ((1, 2), (0, 0), (0, 40), (40, 40))
    ]
    for holder in (first, second):
        holder.put_batch(items, *located)
    assert first.retire(1) == (2, {0: 80})
    second.mark_deleted(b"k0", 1)  # now its run's only holder: in place
    assert second.retire(1) == (1, {0: 40})

    memtable = Memtable()
    memtable.put(b"k0", 1, (0, 0, 40), False, 1)
    memtable.put(b"k1", 1, (0, 40, 40), False, 2)
    walk = FrameWalk([
        (40 * index, 40 * index + 40, int(RecordType.PUT_VALUE),
         b"k%d" % index, 1, index + 1)
        for index in range(2)
    ])
    assert memtable.survivors(0, walk)[0] == [0, 1]
    memtable.mark_deleted(b"k0", 1)  # its only holder: in place
    assert memtable.survivors(0, walk)[0] == [1]
    assert memtable.get(b"k0", 1) is None
