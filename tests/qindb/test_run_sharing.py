"""Differential test: memtable runs shared by replicas against private ones.

Replicas that store the same batches in the same order hold one run per
version, each seeing its own prefix of it, and take a private copy at
their first divergent write.  :class:`ReferenceMemtable` is the memtable
this repo shipped before runs were shared — every replica building and
writing runs of its own — kept verbatim but for docstrings.  Three
replicas and their private twins (:class:`ReferenceQinDB`) take one
history of batches, each batch built once and handed to all six, while
every replica draws divergences of its own: a missed batch put late, a
private put, delete, restore and retire, a collection (so relocate and
drop run), media damage, and a crash with recovery.  After every step
each replica must agree with its twin on ``items()``, ``resolve_batch``
(and its charge), ``get_batch`` and ``older_versions`` over its whole
key space, ``survivors`` of every sealed segment, and the ``check_new``
verdict on every batch of the history.
"""

from __future__ import annotations

import copy
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from itertools import compress
from typing import Dict, Iterator, List, Optional, Sequence, Tuple
from unittest.mock import patch

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    CorruptionError,
    DuplicateItemError,
    KeyNotFoundError,
    StorageError,
)
from repro.qindb import checkpoint as checkpoint_module
from repro.qindb.aof import RecordLocation
from repro.qindb.checkpoint import crash, recover
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.memtable import (
    _DELETE,
    _ITEM_OVERHEAD,
    _LIVE,
    _PUT_VALUE,
    _RETIRE,
    _RETIRED,
    DEDUP,
    DELETED,
    IndexItem,
    ItemColumns,
    ItemKey,
    RunCopies,
    _slot_numbers,
)
from repro.qindb.records import Bodies, Frame
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry


class _ReferenceRun:
    """The parent's run: key → slot, and a column per field."""

    __slots__ = ("slots", "segment", "offset", "length", "sequence", "flags")

    def __init__(self) -> None:
        self.slots: Dict[bytes, int] = {}
        self.segment, self.offset, self.length, self.sequence = (
            array("q") for _ in range(4)
        )
        self.flags = bytearray()

    def location(self, slot: int) -> RecordLocation:
        return (self.segment[slot], self.offset[slot], self.length[slot])

    def item(self, key: bytes) -> Optional[IndexItem]:
        slot = self.slots.get(key)
        if slot is None:
            return None
        flags = self.flags[slot]
        return (
            (self.segment[slot], self.offset[slot], self.length[slot]),
            bool(flags & DEDUP),
            bool(flags & DELETED),
            self.sequence[slot],
        )


class ReferenceMemtable:
    """The parent's memtable: every replica holds its own runs."""

    def __init__(self) -> None:
        self._runs: Dict[int, _ReferenceRun] = {}
        #: the versions that have a run, ascending
        self._versions: List[int] = []
        self._count = 0
        #: approximate resident bytes (keys + per-item overhead), the ``M``
        #: term in the RUM accounting
        self.approximate_bytes = 0
        #: comparisons charged for the most recent put, get, mark-deleted
        #: or resolve operation (see the module docstring)
        self.last_search_steps = 0

    def __len__(self) -> int:
        return self._count

    def _item(self, key: bytes, version: int) -> Optional[IndexItem]:
        run = self._runs.get(version)
        return None if run is None else run.item(key)

    def _charge(self, count: int, hops: int = 0) -> None:
        self.last_search_steps = (
            self._count.bit_length() + max(count - 1, 0) + hops
        )

    def put(
        self,
        key: bytes,
        version: int,
        location: RecordLocation,
        deduplicated: bool,
        sequence: int = 0,
    ) -> None:
        flags = bytes((DEDUP if deduplicated else 0,))
        self.put_batch(
            ItemColumns([(key, version)], flags),
            *(array("q", (field,)) for field in (sequence, *location)),
        )

    def check_new(self, items: ItemColumns) -> None:
        if items.version is not None and not items.repeats:
            run = self._runs.get(items.version)
            if run is None or run.slots.keys().isdisjoint(items.keys):
                return
        seen = set()
        for key, version in items.item_keys:
            run = self._runs.get(version)
            if (key, version) in seen or (run and key in run.slots):
                raise DuplicateItemError(f"re-put of {key!r}/{version}")
            seen.add((key, version))

    def put_batch(
        self,
        items: ItemColumns,
        sequences: array,
        segments: array,
        offsets: array,
        lengths: array,
    ) -> None:
        count = len(items.item_keys)
        version = items.version
        if version is None:
            shares: Dict[int, List[int]] = {}
            for index, (_key, item_version) in enumerate(items.item_keys):
                shares.setdefault(item_version, []).append(index)
            columns = (sequences, segments, offsets, lengths)
            for at in shares.values():
                self.put_batch(
                    ItemColumns(
                        [items.item_keys[index] for index in at],
                        bytes(map(items.flags.__getitem__, at)),
                    ),
                    *(array("q", map(col.__getitem__, at)) for col in columns),
                )
            self._charge(count)
            return
        run = self._runs.get(version)
        if run is None:
            run = self._runs[version] = _ReferenceRun()
            insort(self._versions, version)
        slots = _slot_numbers(len(run.flags), count)
        run.slots.update(zip(items.keys, slots))
        run.segment += segments
        run.offset += offsets
        run.length += lengths
        run.flags += items.flags
        run.sequence += sequences
        self._count += count
        self.approximate_bytes += _ITEM_OVERHEAD * count + items.key_bytes
        self._charge(count)

    def get(self, key: bytes, version: int) -> Optional[IndexItem]:
        self.last_search_steps = self._count.bit_length()  # _charge(1)
        return self._item(key, version)

    def get_batch(
        self, item_keys: Sequence[ItemKey]
    ) -> List[Optional[IndexItem]]:
        self._charge(len(item_keys))
        runs = self._runs
        return [
            None if (run := runs.get(version)) is None else run.item(key)
            for key, version in item_keys
        ]

    def mark_deleted(self, key: bytes, version: int) -> None:
        self.mark_deleted_batch([(key, version)])

    def mark_deleted_batch(self, item_keys: Sequence[ItemKey]) -> None:
        runs = self._runs
        for key, version in item_keys:
            run = runs.get(version)
            slot = None if run is None else run.slots.get(key)
            if slot is not None:
                run.flags[slot] |= DELETED
        self._charge(len(item_keys))

    def restore(self, key: bytes, version: int) -> None:
        run = self._runs[version]
        run.flags[run.slots[key]] &= ~DELETED
        self.last_search_steps = self._count.bit_length()  # _charge(1)

    def shared(self, version, key, build):
        """What the engine derives from a run alone, built for each ask:
        nothing is shared (the engine asks for its ``RETIRE`` frame)."""
        return build()

    def retire(
        self, version: int, before: Optional[int] = None
    ) -> Tuple[int, Dict[int, int]]:
        self.last_search_steps = self._count.bit_length()  # _charge(1)
        run = self._runs.get(version)
        if run is None:
            return 0, {}
        if before is None or max(run.sequence) < before:
            live = run.flags.translate(_LIVE)
            run.flags = run.flags.translate(_RETIRED)
        else:  # replay: a key first put into the version after its RETIRE
            live = bytes(
                not flags & DELETED and sequence < before
                for flags, sequence in zip(run.flags, run.sequence)
            )
            for slot in compress(range(len(live)), live):
                run.flags[slot] |= DELETED
        dead: Dict[int, int] = {}
        get = dead.get
        for segment_id, length in zip(
            compress(run.segment, live), compress(run.length, live)
        ):
            dead[segment_id] = get(segment_id, 0) + length
        return live.count(1), dead

    def relocate(
        self,
        item_keys: Sequence[Optional[ItemKey]],
        segments: Sequence[int],
        offsets: Sequence[int],
        lengths: Sequence[int],
    ) -> None:
        runs = self._runs
        for item_key, segment_id, offset, length in zip(
            item_keys, segments, offsets, lengths
        ):
            if item_key is not None:
                run = runs[item_key[1]]
                slot = run.slots[item_key[0]]
                run.segment[slot] = segment_id
                run.offset[slot] = offset
                run.length[slot] = length

    def drop(self, key: bytes, version: int) -> None:
        run = self._runs.get(version)
        if run is None or run.slots.pop(key, None) is None:
            raise KeyNotFoundError(f"no memtable item {(key, version)!r}")
        if not run.slots:
            del self._runs[version]
            self._versions.remove(version)
        self._count -= 1
        self.approximate_bytes -= len(key) + _ITEM_OVERHEAD

    def resolve_batch(
        self, item_keys: Sequence[ItemKey]
    ) -> List[Optional[RecordLocation]]:
        runs = self._runs
        versions = self._versions
        hops = 0
        located: List[Optional[RecordLocation]] = []
        for key, version in item_keys:
            run = runs.get(version)
            slot = None if run is None else run.slots.get(key)
            if slot is None:
                located.append(None)
                continue
            flags = run.flags[slot]
            if not flags:  # live, with its own value
                located.append(
                    (run.segment[slot], run.offset[slot], run.length[slot])
                )
            elif flags & DEDUP:
                base = None
                for index in range(bisect_left(versions, version) - 1, -1, -1):
                    older = runs[versions[index]]
                    older_slot = older.slots.get(key)
                    if older_slot is not None:
                        hops += 1
                        if not older.flags[older_slot] & DEDUP:
                            base = older.location(older_slot)
                            break
                located.append(None if flags & DELETED else base)
            else:
                located.append(None)  # deleted
        self._charge(len(item_keys), hops)
        return located

    def survivors(
        self, segment_id: int, frames: Sequence[Frame]
    ) -> Tuple[List[int], List[Optional[ItemKey]], List[bool]]:
        runs = self._runs
        kept: List[int] = []
        owners: List[Optional[ItemKey]] = []
        dead: List[bool] = []
        doomed: Dict[ItemKey, None] = {}
        retires: List[Tuple[int, int]] = []  # (position in kept, version)

        def keep(index: int, owner: Optional[ItemKey], is_dead: bool) -> None:
            kept.append(index)
            owners.append(owner)
            dead.append(is_dead)

        for index, (offset, _end, rtype, key, version, _sequence) in enumerate(
            frames
        ):
            run = runs.get(version)
            if run is None:
                continue  # a dropped version's frame; dies with the segment
            if rtype == _RETIRE:
                retires.append((len(kept), version))
                keep(index, None, True)
                continue
            slot = run.slots.get(key)
            if slot is None:
                continue  # dropped; dies with the segment
            deleted = run.flags[slot] & DELETED
            if rtype == _DELETE:
                # Carry a tombstone forward while its target lives.
                if deleted and (key, version) not in doomed:
                    keep(index, None, True)
            elif run.offset[slot] != offset or run.segment[slot] != segment_id:
                pass  # a GC duplicate, already moved; dies with the segment
            elif not deleted:
                keep(index, (key, version), False)
            elif rtype == _PUT_VALUE and self.referenced(key, version):
                # Dead, but a newer deduplicated version resolves here.
                keep(index, (key, version), True)
            else:
                doomed[(key, version)] = None
        for key, version in doomed:
            self.drop(key, version)
        for position, version in reversed(retires):
            if version not in runs:
                del kept[position], owners[position], dead[position]
        return kept, owners, dead

    def referenced(self, key: bytes, version: int) -> bool:
        runs = self._runs
        versions = self._versions
        for index in range(bisect_right(versions, version), len(versions)):
            run = runs[versions[index]]
            slot = run.slots.get(key)
            if slot is not None:
                flags = run.flags[slot]
                if not flags & DEDUP:
                    return False
                if not flags & DELETED:
                    return True
        return False

    def older_versions(
        self, key: bytes, version: int
    ) -> Iterator[Tuple[int, IndexItem]]:
        versions = self._versions
        for index in range(bisect_left(versions, version) - 1, -1, -1):
            item = self._runs[versions[index]].item(key)
            if item is not None:
                yield versions[index], item

    def scan(
        self, start_key: bytes, end_key: bytes
    ) -> Iterator[Tuple[bytes, int, IndexItem]]:
        return self._sorted(lambda key: start_key <= key < end_key)

    def items(self) -> Iterator[Tuple[bytes, int, IndexItem]]:
        return self._sorted(lambda key: True)

    def _sorted(self, wanted) -> Iterator[Tuple[bytes, int, IndexItem]]:
        item_keys = sorted(
            (key, version)
            for version, run in self._runs.items()
            for key in filter(wanted, run.slots)
        )
        for key, version in item_keys:
            item = self._item(key, version)
            if item is not None:
                yield key, version, item


class ReferenceQinDB(QinDB):
    """QinDB over the parent's memtable."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.memtable = ReferenceMemtable()


def small_engine(kind=QinDB) -> QinDB:
    """2 KB erase blocks and one-block segments, as the storage machine's:
    segments seal and collections run within a few batches."""
    geometry = SSDGeometry(
        block_count=512, pages_per_block=4, page_size=512, op_ratio=0.07
    )
    return kind(
        SimulatedSSD(geometry),
        config=QinDBConfig(
            segment_bytes=2 * 1024,
            gc_occupancy_threshold=0.5,
            gc_defer_min_free_blocks=0,
        ),
    )


KEYS = [b"k%d" % index for index in range(6)]
VERSIONS = [1, 2, 3]


def history() -> List[Bodies]:
    """Two batches per version, some records value-less past version 1;
    fresh objects per example, since a batch keeps what its replicas
    learnt from it."""
    return [
        Bodies([
            (
                key, version,
                None if version > 1 and (index + version) % 3 == 0
                else bytes([version, index]) * (100 + 60 * index),
            )
            for index, key in enumerate(KEYS[half * 3 : half * 3 + 3])
        ])
        for version in VERSIONS
        for half in range(2)
    ]


class Replica:
    """A replica and its private twin, and where each is in the history."""

    def __init__(self, number: int) -> None:
        self.number = number
        self.engine = small_engine()
        self.twin = small_engine(ReferenceQinDB)
        self.next = 0
        self.missed: List[Bodies] = []
        self.keys = list(KEYS)
        self.up = True
        self.copies: Counter = Counter()

    def both(self, act) -> object:
        """``act`` on the replica and on its twin: the same answer, or
        the same error."""
        outcomes = []
        for engine in (self.engine, self.twin):
            try:
                outcomes.append(act(engine))
            except StorageError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def tally(self) -> None:
        copies = self.engine.memtable.copies
        self.copies.update(
            {verb: getattr(copies, verb) for verb in RunCopies.__slots__}
        )


def deliver(replica, batches, pick):
    if replica.next < len(batches):
        batch = batches[replica.next]
        replica.next += 1
        replica.both(lambda engine: engine.put_batch(batch))


def miss(replica, batches, pick):
    if replica.next < len(batches):
        replica.missed.append(batches[replica.next])
        replica.next += 1


def late(replica, batches, pick):
    if replica.missed:
        batch = replica.missed.pop(pick % len(replica.missed))
        replica.both(lambda engine: engine.put_batch(batch))


def private(replica, batches, pick):
    key = b"p%d-%d" % (replica.number, len(replica.keys))
    replica.keys.append(key)
    value = None if pick % 3 == 0 else bytes([pick % 251]) * (20 + pick % 90)
    batch = Bodies([(key, VERSIONS[pick % len(VERSIONS)], value)])
    replica.both(lambda engine: engine.put_batch(batch))


def held(replica, deleted):
    return [
        (key, version)
        for key, version, item in replica.twin.memtable.items()
        if item[2] == deleted
    ]


def delete(replica, batches, pick):
    live = held(replica, False)
    if live:
        item = live[pick % len(live)]
        replica.both(lambda engine: engine.delete_batch([item]))


def restore(replica, batches, pick):
    gone = held(replica, True)
    if gone:
        key, version = gone[pick % len(gone)]
        replica.both(lambda engine: engine.restore(key, version))


def retire(replica, batches, pick):
    version = VERSIONS[pick % len(VERSIONS)]
    replica.both(lambda engine: engine.retire_version(version))


def sealed(engine) -> List[int]:
    active = engine.aofs.active_segment_id
    return [
        segment.segment_id
        for segment in engine.aofs.segments
        if segment.segment_id != active
    ]


def collect(replica, batches, pick):
    victims = sealed(replica.twin)
    if victims:
        victim = victims[pick % len(victims)]
        replica.both(lambda engine: engine.collect_segment(victim))


def damage(replica, batches, pick):
    segments = [
        segment for segment in replica.twin.aofs.segments if segment.size
    ]
    if segments:
        segment = segments[pick % len(segments)]
        segment_id, offset = segment.segment_id, pick % segment.size
        replica.both(
            lambda engine: engine.aofs.segment(segment_id)._unit.corrupt(
                offset, 0x10
            )
        )


def crash_and_recover(replica, batches, pick):
    replica.tally()
    try:
        engine = recover(crash(replica.engine), config=replica.engine.config)
    except CorruptionError:
        engine = None
    with patch.object(checkpoint_module, "QinDB", ReferenceQinDB):
        try:
            twin = recover(crash(replica.twin), config=replica.twin.config)
        except CorruptionError:
            twin = None
    assert (engine is None) == (twin is None)
    assert twin is None or isinstance(twin.memtable, ReferenceMemtable)
    replica.engine, replica.twin, replica.up = engine, twin, twin is not None


STEPS = {
    step.__name__: step
    for step in (
        deliver, miss, late, private, delete, restore, retire, collect,
        damage, crash_and_recover,
    )
}
#: a round delivers the next batch to every replica; deliveries are
#: drawn about as often as divergences
DRAWN = [*STEPS, "deliver", "round", "round", "round", "round"]


def verdict(memtable, items: ItemColumns) -> bool:
    try:
        memtable.check_new(items)
    except DuplicateItemError:
        return False
    return True


def survivors(engine, memtable) -> list:
    """``survivors`` of every sealed, readable segment, in turn, on a
    copy of ``memtable`` (each call drops what it dooms)."""
    memtable = copy.deepcopy(memtable)
    answers = []
    for segment_id in sealed(engine):
        try:
            frames = engine.aofs.segment(segment_id).read_frames()[0]
        except CorruptionError:
            continue
        answers.append(memtable.survivors(segment_id, frames))
    return answers


def check(replica, batches) -> None:
    mine, theirs = replica.engine.memtable, replica.twin.memtable
    assert list(mine.items()) == list(theirs.items())
    assert (len(mine), mine.approximate_bytes) == (
        len(theirs), theirs.approximate_bytes
    )
    space = [(key, version) for key in replica.keys for version in VERSIONS]
    assert mine.resolve_batch(space) == theirs.resolve_batch(space)
    assert mine.last_search_steps == theirs.last_search_steps
    assert mine.get_batch(space) == theirs.get_batch(space)
    for key, version in space:
        assert list(mine.older_versions(key, version)) == list(
            theirs.older_versions(key, version)
        )
    assert survivors(replica.engine, mine) == survivors(replica.twin, theirs)
    for batch in batches:
        items = batch.shared(ItemColumns, ItemColumns.of_batch)
        assert verdict(mine, items) == verdict(theirs, items)


def shared_runs(replicas) -> int:
    """How many run objects two or more replicas hold."""
    holders = Counter(
        id(run)
        for replica in replicas
        if replica.up
        for run, _view in replica.engine.memtable._runs.values()
    )
    return sum(count > 1 for count in holders.values())


def test_shared_runs_read_and_write_as_private_ones():
    seen: Counter = Counter()

    @settings(
        max_examples=100, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(DRAWN), st.integers(0, 2),
                st.integers(0, 1 << 16),
            ),
            min_size=10, max_size=50,
        )
    )
    def run(steps):
        batches = history()
        replicas = [Replica(number) for number in range(3)]
        for name, number, pick in steps:
            replica = replicas[number]
            if name == "round":  # every replica takes its next batch
                for replica in replicas:
                    if replica.up:
                        deliver(replica, batches, pick)
            elif replica.up:
                STEPS[name](replica, batches, pick)
            for replica in replicas:
                if replica.up:
                    check(replica, batches)
            seen["shared"] += shared_runs(replicas) > 0
        for replica in replicas:
            if replica.up:
                replica.tally()
            seen.update(replica.copies)

    run()
    assert seen["shared"] > 500, seen  # steps that left a run shared
    # A retire, relocation or collection of a run other replicas hold is
    # made once and handed to each of them (tests/qindb/test_gc_sharing.py),
    # not copied per replica; puts behind the frontier and deletes copy.
    copied = ("put", "delete")
    assert all(seen[verb] for verb in copied), seen
    # A deleted item lies only in a run its memtable alone holds and sees
    # whole (a delete or retire copies first), so neither a restore nor a
    # drop, which GC does to deleted items only, ever copies.
    assert seen["restore"] == seen["drop"] == 0, seen
