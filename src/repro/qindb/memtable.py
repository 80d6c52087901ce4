"""QinDB's memtable: one run of columns per version.

The paper's memtable entry is an AOF offset plus the ``r`` and ``d``
flags — a few machine words.  Here an entry is one *slot* of its
version's run: the run maps each key to its slot, and the slot indexes
``array('q')`` columns of segment, offset, length and sequence (the put
that created it: recovery order) and a ``bytearray`` of flags (``r`` =
:data:`DEDUP`, the value field was removed upstream; ``d`` =
:data:`DELETED`).  Beside the key, a record costs one dict entry and
33 column bytes, none of them tracked by the cyclic collector; its slot
number is the int object every run shares for that index.  DirectLoad
ingests whole versions, so a batch extends one run's columns by whole
array copies (:meth:`Memtable.put_batch` takes columns, not items: the
batch's :class:`ItemColumns`, built once for every replica, and its
frames' locations as the AOF's runs give them); a run is freed when GC
drops its last slot.

An *item* is built on access as the exact tuple ``(location,
deduplicated, deleted, sequence)``, ``location = (segment_id, offset,
length)`` — a value, not a handle: only this module's verbs change the
table.  The read path builds none: :meth:`Memtable.resolve_batch`
returns the location each read lands on.

Items of one key order by version, so GET's *traceback* ("the nearest
older version that still carries a value") probes the key in each older
run, newest first, and GC's *referent check* ("does a newer
deduplicated version still resolve to this dead record?") in each newer
run, oldest first.  Only checkpoints and range scans need key order;
:meth:`~Memtable.items` and :meth:`~Memtable.scan` sort across runs on
access ("sorting only in RAM, pure appends on disk").

A run is also the unit of eviction: :meth:`Memtable.retire` sets the
``d`` flag on every slot of a version in one pass over its flag column,
and GC asks :meth:`Memtable.survivors` which frames of a victim segment
live on, reading the columns directly — neither builds an item.

Replicas that store the same batches in the same order build equal
runs, so a run is held once for all of them.  A memtable keeps, per
version, the run it holds and its *view*: how many of the run's slots it
sees; every read and check looks at those slots only.  A batch's
:class:`ItemColumns`, one object for every replica, remember which run
each run prefix became once the batch extended it, beside the batch's
other columns: a replica applying the batch at a prefix already extended
so takes that run and advances its view, inserting and copying nothing.
Otherwise the holder that sees a whole run (its *frontier*) appends in
place, unseen by holders whose views end before.  Every other write — a
different batch behind the frontier, a delete, restore, retire, GC
relocation or drop — goes to a run this memtable alone holds and sees
whole; a replica holding anything else first takes a private copy of the
slots it sees (counted in :attr:`Memtable.copies` by the verb that forced
it) and diverges alone from there.  A write in place other than an
append bumps the run's *stamp*, so no batch hands it out again for a
prefix it no longer has.

Eviction and GC write alike on every replica, so they are made once for
all holders of a run: a retire or a relocation is looked up in the
held run's *memo* under the prefix seen and the write's inputs, and the
first holder to make it keeps the run it made there for the rest
(:meth:`Memtable._transit`); :meth:`Memtable.survivors` keeps its
decision and the runs its drops made on the segment's walk, under every
run it read with its stamp and view.  A run so handed on is never
written in place again.

CPU cost model: every put, get, mark-deleted, retire and resolve
operation — of one item or of a batch — sets
:attr:`Memtable.last_search_steps` to
``len(table).bit_length() + neighbour hops``: the comparisons of one
binary search over the whole table, then one step per neighbour visited
(each further item of a batch, each older item of the key a traceback
walks).  It depends on the table's size only, never on the order its
contents arrived in, on how many runs hold them or on how many
memtables share a run.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right, insort
from itertools import compress
from operator import itemgetter
from typing import (
    Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

from repro.errors import DuplicateItemError, KeyNotFoundError
from repro.qindb.aof import RecordLocation
from repro.qindb.records import Frame, FrameWalk, RecordType

T = TypeVar("T")

#: a (key, version) composite; tuples compare key-first then version
ItemKey = Tuple[bytes, int]

#: one memtable entry as built on access: ``(location, deduplicated,
#: deleted, sequence)``
IndexItem = Tuple[RecordLocation, bool, bool, int]

#: the flag bits of a slot (a checkpoint row stores the same byte)
DEDUP = 0x01
DELETED = 0x02

#: modelled resident bytes of an item beside its key (version + fields)
_ITEM_OVERHEAD = 8 + 40

#: flag byte -> 1 where the slot is live (no ``d`` flag), else 0
_LIVE = bytes(0 if flags & DELETED else 1 for flags in range(256))
#: flag byte -> the same byte with the ``d`` flag set
_RETIRED = bytes(flags | DELETED for flags in range(256))

#: slot ``i`` of every run of every engine is this table's one int
#: object, so a record's slot costs its dict entry only.  The first
#: 4,096 are made at import (~160 KB), so runs of that size never grow
#: it; a longer run extends it, once for the process.
_SLOTS = list(range(1 << 12))


def _slot_numbers(start: int, count: int) -> List[int]:
    """The shared int objects ``start .. start + count - 1``."""
    if start + count > len(_SLOTS):
        _SLOTS.extend(range(len(_SLOTS), start + count))
    return _SLOTS[start : start + count]


_PUT_VALUE = int(RecordType.PUT_VALUE)
_DELETE = int(RecordType.DELETE)
_RETIRE = int(RecordType.RETIRE)


class ItemColumns:
    """New items as :meth:`Memtable.put_batch` takes them.

    Their ``(key, version)`` tuples, the keys alone, the one version
    they share (None when they span several), whether any item repeats,
    their flag bytes and the bytes of their keys: all derived from the
    batch alone, so a batch many replicas store derives them once
    (:meth:`of_batch`, kept on the batch by
    :meth:`~repro.qindb.records.Bodies.shared`).  Beside them, what the
    replicas learnt: the run prefixes the keys were found new against
    (``checked``) and the run each prefix became once extended by the
    batch (``extended``), a prefix named by its run's identity, stamp
    and view.
    """

    __slots__ = (
        "item_keys", "keys", "version", "repeats", "flags", "key_bytes",
        "checked", "extended",
    )

    def __init__(self, item_keys: Sequence[ItemKey], flags: bytes) -> None:
        self.item_keys = item_keys
        self.keys = list(map(itemgetter(0), item_keys))
        versions = set(map(itemgetter(1), item_keys))
        self.version = versions.pop() if len(versions) == 1 else None
        distinct = set(item_keys if self.version is None else self.keys)
        self.repeats = len(distinct) != len(item_keys)
        self.flags = flags
        self.key_bytes = sum(map(len, self.keys))
        #: (id, stamp, view) of a run prefix -> the run (held, so its id
        #: stays its own)
        self.checked: Dict[tuple, "_Run"] = {}
        #: (id, stamp, view) of a run prefix, ids of the other four
        #: columns -> (the run it became, that run's stamp then, and the
        #: objects the ids name)
        self.extended: Dict[tuple, tuple] = {}

    @classmethod
    def of_batch(cls, batch) -> "ItemColumns":
        """A put batch's (:class:`~repro.qindb.records.Bodies`): each
        item's ``r`` flag set where its value was removed upstream."""
        return cls(batch.item_keys, bytes(batch.dedup))


class _Run:
    """The items of one version: key → slot, and a column per field.

    A run may back several memtables, each seeing its first *view*
    slots.  ``holders`` counts them — never fewer: a memtable dropped
    with its engine still counts, and so does the memo of the run it was
    made from — and ``stamp`` the writes in place other than appends, so
    the run's identity and stamp name what every prefix of it holds.
    ``memo`` keeps what its holders make alike: the run each write other
    than an append made of a prefix (:meth:`Memtable._transit`), and
    whatever the engine derives from the run alone
    (:meth:`Memtable.shared`).
    """

    __slots__ = (
        "slots", "segment", "offset", "length", "sequence", "flags",
        "holders", "stamp", "memo",
    )

    def __init__(self) -> None:
        self.slots: Dict[bytes, int] = {}
        self.segment, self.offset, self.length, self.sequence = (
            array("q") for _ in range(4)
        )
        self.flags = bytearray()
        self.holders = 1
        self.stamp = 0
        self.memo: Dict[tuple, object] = {}

    def bump(self) -> None:
        """Mark a write in place other than an append: a new stamp, and
        nothing remembered of the old one."""
        self.stamp += 1
        self.memo.clear()

    def prefix(self, view: int) -> "_Run":
        """A private copy of the first ``view`` slots."""
        run = _Run()
        slots = self.slots
        run.slots = (
            slots.copy() if view == len(self.flags)
            else {key: slot for key, slot in slots.items() if slot < view}
        )
        run.segment, run.offset, run.length, run.sequence = (
            column[:view] for column in (
                self.segment, self.offset, self.length, self.sequence
            )
        )
        run.flags = self.flags[:view]
        return run

    def keys(self, view: int):
        """The keys of the first ``view`` slots."""
        if view == len(self.flags):
            return self.slots
        return [key for key, slot in self.slots.items() if slot < view]

    def location(self, slot: int) -> RecordLocation:
        return (self.segment[slot], self.offset[slot], self.length[slot])

    def item(self, key: bytes, view: int) -> Optional[IndexItem]:
        """The item of ``key`` among the first ``view`` slots, built, or
        None."""
        slot = self.slots.get(key, view)
        if slot >= view:
            return None
        flags = self.flags[slot]
        return (
            (self.segment[slot], self.offset[slot], self.length[slot]),
            bool(flags & DEDUP),
            bool(flags & DELETED),
            self.sequence[slot],
        )


class RunCopies:
    """The private run copies one memtable took, by the verb that forced
    each: a put of a different batch behind the frontier, a delete, a
    restore, a retire, a GC relocation or drop.  A retire, relocation or
    collection of a run other memtables hold is made once for all of
    them and handed on (:meth:`Memtable._transit`), so it is counted
    only where no other memtable holds the run it was made from."""

    __slots__ = ("put", "delete", "restore", "retire", "relocate", "drop")

    def __init__(self) -> None:
        for verb in self.__slots__:
            setattr(self, verb, 0)


class Memtable:
    """The in-memory index: every live (key, version) the engine knows."""

    def __init__(self) -> None:
        #: version -> (the run held, how many of its slots this sees)
        self._runs: Dict[int, Tuple[_Run, int]] = {}
        #: the versions that have a run, ascending
        self._versions: List[int] = []
        self._count = 0
        #: approximate resident bytes (keys + per-item overhead), the ``M``
        #: term in the RUM accounting
        self.approximate_bytes = 0
        #: comparisons charged for the most recent put, get, mark-deleted
        #: or resolve operation (see the module docstring)
        self.last_search_steps = 0
        self.copies = RunCopies()

    def __len__(self) -> int:
        return self._count

    def _item(self, key: bytes, version: int) -> Optional[IndexItem]:
        entry = self._runs.get(version)
        return None if entry is None else entry[0].item(key, entry[1])

    def _own(self, version: int, verb: str) -> _Run:
        """The run of ``version`` for this memtable to write in place:
        the one it holds, under a new stamp, when it sees all of it and
        nobody else holds it; else a private copy of the slots it sees,
        counted under ``verb``."""
        run, view = self._runs[version]
        if run.holders == 1 and view == len(run.flags):
            run.bump()
            return run
        run.holders -= 1
        run = run.prefix(view)
        self._runs[version] = (run, view)
        self._count_copy(verb)
        return run

    def _count_copy(self, verb: str) -> None:
        setattr(self.copies, verb, getattr(self.copies, verb) + 1)

    def _writable(self, run: _Run, view: int, verb: str) -> _Run:
        """What a write other than an append to ``run``, seen to
        ``view``, goes to: ``run`` itself, under a new stamp, when this
        memtable is its only holder and sees all of it; else a new run of
        the slots seen, held once — by the memo that hands it to the
        other holders — and counted as a copy under ``verb`` only when
        there are none."""
        if run.holders == 1 and view == len(run.flags):
            run.bump()
            return run
        if run.holders == 1:
            self._count_copy(verb)
        return run.prefix(view)

    def _hold(self, version: int, made: Optional[_Run]) -> None:
        """Hold ``made`` for ``version``, at the view held; None drops
        the version."""
        held, view = self._runs[version]
        if made is not held:
            held.holders -= 1
            if made is not None:
                made.holders += 1
        if made is None:
            del self._runs[version]
            self._versions.remove(version)
        else:
            self._runs[version] = (made, view)

    def _transit(
        self, version: int, verb: tuple, inputs: tuple = ()
    ) -> Tuple[Optional[_Run], list]:
        """Enter a write that every holder of this memtable's run of
        ``version`` makes alike, named by ``verb`` and the objects
        ``inputs`` (by identity; the memo holds them).

        Returns the run to write and the write's outcome list (the
        writer fills it, a later holder reads it).  The first holder of
        a prefix to make the write makes it (:meth:`_writable`) and keeps
        the run made in the held run's memo; every later one takes that
        run, and gets None to write: it is written already."""
        run, view = self._runs[version]
        key = (verb, view, *map(id, inputs))  # a write in place clears it
        found = run.memo.get(key)
        writable = None
        if found is None:
            writable = self._writable(run, view, verb[0])
            if writable is run:
                return run, []
            found = run.memo[key] = (writable, inputs, [])
        self._hold(version, found[0])
        return writable, found[2]

    def shared(self, version: int, key: tuple, build: Callable[[], T]) -> T:
        """``build()``, made by the first holder of this memtable's run
        of ``version`` to ask under ``key`` and the same object for every
        later holder of that run.  ``key`` must name everything ``build``
        reads; the result is shared, not copied."""
        memo = self._runs[version][0].memo
        found = memo.get(key)
        if found is None:
            found = memo[key] = build()
        return found

    def _charge(self, count: int, hops: int = 0) -> None:
        """Set :attr:`last_search_steps` for an operation on ``count``
        items whose tracebacks visited ``hops`` older versions."""
        self.last_search_steps = (
            self._count.bit_length() + max(count - 1, 0) + hops
        )

    # ------------------------------------------------------------------
    def put(
        self,
        key: bytes,
        version: int,
        location: RecordLocation,
        deduplicated: bool,
        sequence: int = 0,
    ) -> None:
        """Insert a new item: a :meth:`put_batch` of one."""
        flags = bytes((DEDUP if deduplicated else 0,))
        self.put_batch(
            ItemColumns([(key, version)], flags),
            *(array("q", (field,)) for field in (sequence, *location)),
        )

    def check_new(self, items: ItemColumns) -> None:
        """Raise :class:`~repro.errors.DuplicateItemError` unless every
        ``(key, version)`` is distinct and held by no run, live or
        deleted.  Builds no item and charges nothing: a batch of one
        version without repeats is one set test on its keys — none where
        the batch was found new against the run prefix this memtable
        sees — any other walked."""
        runs = self._runs
        if items.version is not None and not items.repeats:
            entry = runs.get(items.version)
            if entry is None:
                return
            run, view = entry
            prefix = (id(run), run.stamp, view)
            if prefix in items.checked:
                return
            slots = run.slots
            if view == len(run.flags) and slots.keys().isdisjoint(items.keys):
                items.checked[prefix] = run
                return
        seen = set()
        for key, version in items.item_keys:
            entry = runs.get(version)
            if (key, version) in seen or (
                entry and entry[0].slots.get(key, entry[1]) < entry[1]
            ):
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
        """Insert new items (:meth:`check_new`), in input order, from
        columns: the items' own, and beside them their sequences and the
        segment, offset and length of their records, each an
        ``array('q')`` in item order.  A batch of one version — every
        batch an ingest sends — takes the run another replica made of
        this memtable's run prefix and these very columns, when there is
        one; else it extends the run by whole-column copies and one ``key
        -> slot`` insert per item, in place at the frontier, into a
        private copy of the prefix behind it.  One spanning versions (a
        checkpoint load) inserts each version's share so.
        """
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
        run, view = self._runs.get(version, (None, 0))
        memo = (
            id(run), None if run is None else run.stamp, view,
            id(sequences), id(segments), id(offsets), id(lengths),
        )
        found = items.extended.get(memo)
        if found is not None and found[0].stamp == found[1]:
            extended = found[0]
            if extended is not run:
                extended.holders += 1
        else:
            if run is None:
                extended = _Run()
            elif view == len(run.flags):
                extended = run  # the frontier: nobody else sees past it
            else:
                extended = run.prefix(view)
                self.copies.put += 1
            slots = _slot_numbers(len(extended.flags), count)
            extended.slots.update(zip(items.keys, slots))
            extended.segment += segments
            extended.offset += offsets
            extended.length += lengths
            extended.flags += items.flags
            extended.sequence += sequences
            items.extended[memo] = (
                extended, extended.stamp,
                run, sequences, segments, offsets, lengths,
            )
        if run is None:
            insort(self._versions, version)
        elif extended is not run:
            run.holders -= 1
        self._runs[version] = (extended, view + count)
        self._count += count
        self.approximate_bytes += _ITEM_OVERHEAD * count + items.key_bytes
        self._charge(count)

    def get(self, key: bytes, version: int) -> Optional[IndexItem]:
        """The item for (key, version), or None."""
        self.last_search_steps = self._count.bit_length()  # _charge(1)
        return self._item(key, version)

    def get_batch(
        self, item_keys: Sequence[ItemKey]
    ) -> List[Optional[IndexItem]]:
        """:meth:`get` for a batch of ``(key, version)`` pairs."""
        self._charge(len(item_keys))
        runs = self._runs
        return [
            None if (entry := runs.get(version)) is None
            else entry[0].item(key, entry[1])
            for key, version in item_keys
        ]

    def mark_deleted(self, key: bytes, version: int) -> None:
        """Set the ``d`` flag: a :meth:`mark_deleted_batch` of one."""
        self.mark_deleted_batch([(key, version)])

    def mark_deleted_batch(self, item_keys: Sequence[ItemKey]) -> None:
        """Set each present item's ``d`` flag, charged as
        :meth:`get_batch`."""
        runs = self._runs
        owned = set()
        for key, version in item_keys:
            entry = runs.get(version)
            if entry is None:
                continue
            run, view = entry
            slot = run.slots.get(key, view)
            if slot < view:
                if version not in owned:
                    owned.add(version)
                    run = self._own(version, "delete")
                run.flags[slot] |= DELETED
        self._charge(len(item_keys))

    def restore(self, key: bytes, version: int) -> None:
        """Clear a held item's ``d`` flag, charged as one search."""
        run = self._own(version, "restore")
        run.flags[run.slots[key]] &= ~DELETED
        self.last_search_steps = self._count.bit_length()  # _charge(1)

    def retire(
        self, version: int, before: Optional[int] = None
    ) -> Tuple[int, Dict[int, int]]:
        """Set the ``d`` flag on every live item of ``version`` — only
        those with a sequence below ``before``, when given — charged as
        one search.

        Returns how many items it flagged and their bytes per segment
        (what the GC table moves to dead).  When every slot is older
        than ``before`` (always, in a running engine) the flags change
        in one pass over the run's flag column.
        """
        self.last_search_steps = self._count.bit_length()  # _charge(1)
        entry = self._runs.get(version)
        if entry is None:
            return 0, {}
        run, view = entry
        flags = run.flags if view == len(run.flags) else run.flags[:view]
        whole = before is None or max(run.sequence) < before
        if whole:
            live = flags.translate(_LIVE)
        else:  # replay: a key first put into the version after its RETIRE
            live = bytes(
                not bits & DELETED and sequence < before
                for bits, sequence in zip(flags, run.sequence)
            )
        count = live.count(1)
        if not count:
            return 0, {}
        run, outcome = self._transit(version, ("retire", before))
        if run is not None:
            if whole:
                run.flags = run.flags.translate(_RETIRED)
            else:
                for slot in compress(range(len(live)), live):
                    run.flags[slot] |= DELETED
            dead: Dict[int, int] = {}
            get = dead.get
            for segment_id, length in zip(
                compress(run.segment, live), compress(run.length, live)
            ):
                dead[segment_id] = get(segment_id, 0) + length
            outcome.append((count, dead))
        return outcome[0]

    def relocate(
        self,
        item_keys: Sequence[Optional[ItemKey]],
        segments: Sequence[int],
        offsets: Sequence[int],
        lengths: Sequence[int],
    ) -> None:
        """Point each item at its record's new location (GC moved it),
        flags and sequence kept, from columns as :meth:`put_batch` takes
        them.  An item key of None is a frame moved without an item (a
        carried tombstone), skipped; a KeyError where an item is absent.
        A version's run is written once for every holder that relocates
        it from the same columns (:meth:`_transit`)."""
        columns = (item_keys, segments, offsets, lengths)
        owned: Dict[int, Optional[_Run]] = {}
        for item_key, segment_id, offset, length in zip(*columns):
            if item_key is not None:
                key, version = item_key
                if version in owned:
                    run = owned[version]
                else:
                    run = owned[version] = self._transit(
                        version, ("relocate",), columns
                    )[0]
                if run is not None:
                    slot = run.slots[key]
                    run.segment[slot] = segment_id
                    run.offset[slot] = offset
                    run.length[slot] = length

    def drop(self, key: bytes, version: int) -> None:
        """Remove the item entirely (GC of an unreferenced dead record);
        its run goes with its last item."""
        entry = self._runs.get(version)
        if entry is None or entry[0].slots.get(key, entry[1]) >= entry[1]:
            raise KeyNotFoundError(f"no memtable item {(key, version)!r}")
        run = self._own(version, "drop")
        del run.slots[key]
        if not run.slots:
            del self._runs[version]
            self._versions.remove(version)
        self._count -= 1
        self.approximate_bytes -= len(key) + _ITEM_OVERHEAD

    def resolve_batch(
        self, item_keys: Sequence[ItemKey]
    ) -> List[Optional[RecordLocation]]:
        """Where each ``(key, version)`` read lands, in input order.

        A live item with a value reads its own location; a live
        deduplicated one, the nearest older item of its key that carries
        a value (the *traceback*: that item's ``d`` flag is ignored, per
        the paper's referent rule).  None where the read finds nothing —
        absent, deleted, or a chain that reaches no value.  A deleted
        deduplicated item still walks, so its hops are charged.
        """
        runs = self._runs
        versions = self._versions
        hops = 0
        located: List[Optional[RecordLocation]] = []
        for key, version in item_keys:
            entry = runs.get(version)
            if entry is None:
                located.append(None)
                continue
            run, view = entry
            slot = run.slots.get(key, view)
            if slot >= view:
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
                    older, older_view = runs[versions[index]]
                    older_slot = older.slots.get(key, older_view)
                    if older_slot < older_view:
                        hops += 1
                        if not older.flags[older_slot] & DEDUP:
                            base = older.location(older_slot)
                            break
                located.append(None if flags & DELETED else base)
            else:
                located.append(None)  # deleted
        self._charge(len(item_keys), hops)
        return located

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def survivors(
        self, segment_id: int, frames: FrameWalk
    ) -> Tuple[List[int], List[Optional[ItemKey]], List[bool]]:
        """Which frames of victim ``segment_id`` live on, in scan order
        (``frames`` as its walk returned them).

        Returns three columns, one entry per survivor: its index in
        ``frames``; the item it holds, to :meth:`relocate` once moved
        (None for a carried ``DELETE`` or ``RETIRE`` frame); and whether
        its moved bytes count dead in the GC table.  The rules:

        * a put frame survives while its item still points at it: live,
          or deleted but *referenced* (:meth:`referenced`, value frames
          only) — it moves dead;
        * any other item at its frame is deleted and unreferenced, and is
          dropped here;
        * a ``DELETE`` tombstone survives, dead, while its item exists
          and is deleted at its place in the scan;
        * a ``RETIRE`` frame survives, dead, while its version still has
          a run once this victim's drops are done.

        Decisions read the run columns; no item is built.  They and the
        drops are made once for every memtable that asks about the same
        walk (:class:`~repro.qindb.records.FrameWalk`) holding the same
        runs at the same stamps and views: the first decides, and each
        later one takes its three lists (shared: never mutate them) and
        the runs its drops made.
        """
        runs = self._runs
        state = tuple(
            (version, *runs[version], runs[version][0].stamp)
            for version in self._versions
        )
        kept, owners, dead, made, dropped, dropped_bytes = frames.shared(
            ("survivors", segment_id, state),
            lambda walk: self._decide(segment_id, walk),
        )
        for version, run in made:
            self._hold(version, run)
        self._count -= dropped
        self.approximate_bytes -= dropped_bytes
        return kept, owners, dead

    def _decide(self, segment_id: int, frames: Sequence[Frame]) -> tuple:
        """:meth:`survivors`' lists, and its drops made but not yet held:
        the run each version they touch goes to (None once emptied), how
        many items they drop and those items' modelled bytes."""
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
            entry = runs.get(version)
            if entry is None:
                continue  # a dropped version's frame; dies with the segment
            if rtype == _RETIRE:
                retires.append((len(kept), version))
                keep(index, None, True)
                continue
            run, view = entry
            slot = run.slots.get(key, view)
            if slot >= view:
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
        made: Dict[int, Optional[_Run]] = {}
        dropped_bytes = 0
        for key, version in doomed:
            run = made.get(version)
            if run is None:
                run = made[version] = self._writable(*runs[version], "drop")
            del run.slots[key]
            dropped_bytes += len(key) + _ITEM_OVERHEAD
        for version, run in made.items():
            if not run.slots:
                made[version] = None
        for position, version in reversed(retires):
            if version in made and made[version] is None:
                del kept[position], owners[position], dead[position]
        return (
            kept, owners, dead, tuple(made.items()), len(doomed),
            dropped_bytes,
        )

    def referenced(self, key: bytes, version: int) -> bool:
        """Does a newer deduplicated version resolve to this record?

        Walk newer versions of the key while they are deduplicated: a
        live deduplicated item means GET on it would traceback here.  The
        walk stops at the first value-bearing newer version, which
        shadows this record.
        """
        runs = self._runs
        versions = self._versions
        for index in range(bisect_right(versions, version), len(versions)):
            run, view = runs[versions[index]]
            slot = run.slots.get(key, view)
            if slot < view:
                flags = run.flags[slot]
                if not flags & DEDUP:
                    return False
                if not flags & DELETED:
                    return True
        return False

    # ------------------------------------------------------------------
    # Neighbourhood walks
    # ------------------------------------------------------------------
    def older_versions(
        self, key: bytes, version: int
    ) -> Iterator[Tuple[int, IndexItem]]:
        """Items of ``key`` with smaller versions, newest first."""
        versions = self._versions
        for index in range(bisect_left(versions, version) - 1, -1, -1):
            run, view = self._runs[versions[index]]
            item = run.item(key, view)
            if item is not None:
                yield versions[index], item

    def scan(
        self, start_key: bytes, end_key: bytes
    ) -> Iterator[Tuple[bytes, int, IndexItem]]:
        """Items with ``start_key <= key < end_key``, sorted.

        Walks a snapshot of the key range, so a put or drop while the
        scan is suspended cannot shift it; an item dropped meanwhile is
        skipped.
        """
        return self._sorted(lambda key: start_key <= key < end_key)

    def items(self) -> Iterator[Tuple[bytes, int, IndexItem]]:
        """Every item in sorted order."""
        return self._sorted(lambda key: True)

    def _sorted(self, wanted) -> Iterator[Tuple[bytes, int, IndexItem]]:
        """The items whose key is ``wanted``, sorted across runs."""
        item_keys = sorted(
            (key, version)
            for version, (run, view) in self._runs.items()
            for key in filter(wanted, run.keys(view))
        )
        for key, version in item_keys:
            item = self._item(key, version)
            if item is not None:
                yield key, version, item
