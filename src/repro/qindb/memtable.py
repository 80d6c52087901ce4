"""QinDB's memtable: a sorted in-memory index of ``(key, version)`` items.

Each item is the paper's memtable entry, held as the exact tuple
``(location, deduplicated, deleted, sequence)``: the record's AOF
location (itself an exact ``(segment_id, offset, length)`` tuple), the
``r`` flag (the value field was removed upstream), the ``d`` flag, and
the sequence number of the put that created it (recovery order).  Every
element is an int, a bool or an exact tuple, so CPython's cyclic
collector untracks an item at the first pass that finds its location
untracked (that pass or the next) and never walks it again — a stored
record costs the collector nothing.  An item is immutable: a flag or
location changes by replacing the whole tuple, and only this module's
verbs do that (:meth:`Memtable.mark_deleted_batch`,
:meth:`~Memtable.relocate`); callers hand new items to
:meth:`~Memtable.put_batch_pairs` and otherwise only unpack them.

The paper asks for "sorting only in RAM, pure appends on disk"; here
that is one dict from item key to item plus one sorted list of the item
keys.  A batch of puts is a ``dict.update`` and a list ``extend``; the
list is re-sorted on the next ordered access, where Timsort merges the
already-sorted prefix with the appended run.  Point operations are dict
hits, and every ordered walk is a ``bisect`` plus an index walk.

Items of one key sort adjacent in increasing version order, so:

* GET's *traceback* ("find the nearest older version that still carries a
  value") is a descending neighbour walk, and
* GC's *referent check* ("is this dead record still resolved to by a newer
  deduplicated version?") is an ascending neighbour walk.

CPU cost model: every put, get, mark-deleted and resolve operation — of
one item or of a batch — sets :attr:`Memtable.last_search_steps` to
``len(table).bit_length() + neighbour hops``: the comparisons of the one
binary search that positions the operation, then one step per neighbour
visited (each further item of a batch, each older version a traceback
walks).  It depends on the table's size only, never on the order its
contents arrived in.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import KeyNotFoundError
from repro.qindb.aof import RecordLocation

#: a (key, version) composite; tuples compare key-first then version,
#: giving exactly the paper's "same keys naturally aggregated in the order
#: of increasing version numbers".
ItemKey = Tuple[bytes, int]

#: one memtable entry: ``(location, deduplicated, deleted, sequence)`` —
#: an exact tuple, so the collector untracks it (see the module docstring)
IndexItem = Tuple[RecordLocation, bool, bool, int]

#: modelled resident bytes of an item beside its key (version + fields)
_ITEM_OVERHEAD = 8 + 40


class Memtable:
    """The in-memory index: every live (key, version) the engine knows."""

    def __init__(self) -> None:
        self._items: Dict[ItemKey, IndexItem] = {}
        #: the keys of ``_items``: sorted, except that while ``_sorted`` is
        #: False the keys put since the last ordered access trail unsorted
        self._keys: List[ItemKey] = []
        self._sorted = True
        #: approximate resident bytes (keys + per-item overhead), the ``M``
        #: term in the RUM accounting
        self.approximate_bytes = 0
        #: comparisons charged for the most recent put, get, mark-deleted
        #: or resolve operation (see the module docstring)
        self.last_search_steps = 0

    def __len__(self) -> int:
        return len(self._items)

    def _ordered(self) -> List[ItemKey]:
        """The item keys, sorted."""
        if not self._sorted:
            self._keys.sort()
            self._sorted = True
        return self._keys

    # ------------------------------------------------------------------
    def put(
        self,
        key: bytes,
        version: int,
        location: RecordLocation,
        deduplicated: bool,
        sequence: int = 0,
    ) -> Optional[IndexItem]:
        """Insert or replace the item for (key, version).

        Returns the *previous* item if one was replaced (its record bytes
        just became dead), else None.
        """
        item = (location, deduplicated, False, sequence)
        return self.put_batch_pairs([((key, version), item)])[0]

    def put_batch_pairs(
        self, pairs: Sequence[Tuple[ItemKey, IndexItem]]
    ) -> List[Optional[IndexItem]]:
        """Insert or replace ``(item_key, item)`` pairs, in input order.

        The pairs need not be sorted.  Returns the replaced previous item
        (or None) per pair; where a ``(key, version)`` repeats inside the
        batch the last writer wins and each later pair reports the one
        before it — same as sequential puts.
        """
        items = self._items
        batch = dict(pairs)
        if len(batch) == len(pairs):
            previous = list(map(items.get, batch))
            items.update(batch)
        else:
            previous = []
            for item_key, item in pairs:
                previous.append(items.get(item_key))
                items[item_key] = item
        added = [
            pair[0]
            for pair, replaced in zip(pairs, previous)
            if replaced is None
        ]
        if added:
            self._keys.extend(added)
            self._sorted = False
            self.approximate_bytes += _ITEM_OVERHEAD * len(added) + sum(
                len(item_key[0]) for item_key in added
            )
        self._charge(len(pairs))
        return previous

    def _charge(self, count: int, hops: int = 0) -> None:
        """Set :attr:`last_search_steps` for an operation on ``count``
        items whose tracebacks visited ``hops`` older versions."""
        self.last_search_steps = (
            len(self._items).bit_length() + max(count - 1, 0) + hops
        )

    def get(self, key: bytes, version: int) -> Optional[IndexItem]:
        """The item for (key, version), or None."""
        items = self._items
        self.last_search_steps = len(items).bit_length()  # _charge(1)
        return items.get((key, version))

    def get_batch(
        self, item_keys: Sequence[ItemKey]
    ) -> List[Optional[IndexItem]]:
        """:meth:`get` for a batch of ``(key, version)`` pairs."""
        self._charge(len(item_keys))
        return list(map(self._items.get, item_keys))

    def mark_deleted(self, key: bytes, version: int) -> Optional[IndexItem]:
        """Set the ``d`` flag: a :meth:`mark_deleted_batch` of one."""
        return self.mark_deleted_batch([(key, version)])[0]

    def mark_deleted_batch(
        self, item_keys: Sequence[ItemKey]
    ) -> List[Optional[IndexItem]]:
        """Replace each item by its copy with the ``d`` flag set; returns
        the new items (None where absent), charged as :meth:`get_batch`."""
        items = self._items
        marked: List[Optional[IndexItem]] = []
        for item_key in item_keys:
            item = items.get(item_key)
            if item is not None:
                location, deduplicated, _deleted, sequence = item
                item = items[item_key] = (location, deduplicated, True, sequence)
            marked.append(item)
        self._charge(len(item_keys))
        return marked

    def relocate(self, item_key: ItemKey, location: RecordLocation) -> IndexItem:
        """Point an item at its record's new location (GC moved it),
        flags and sequence kept; returns the new item."""
        items = self._items
        _old, deduplicated, deleted, sequence = items[item_key]
        item = items[item_key] = (location, deduplicated, deleted, sequence)
        return item

    def drop(self, key: bytes, version: int) -> None:
        """Remove the item entirely (GC of an unreferenced dead record)."""
        item_key = (key, version)
        try:
            del self._items[item_key]
        except KeyError:
            raise KeyNotFoundError(f"no memtable item {item_key!r}") from None
        keys = self._ordered()
        del keys[bisect_left(keys, item_key)]
        self.approximate_bytes -= len(key) + _ITEM_OVERHEAD

    def resolve(
        self, key: bytes, version: int
    ) -> Tuple[Optional[IndexItem], Optional[IndexItem]]:
        """The read path: the item *and*, if it is value-less, the record
        GET's traceback resolves it to.

        Returns ``(item, base)``: the item at ``(key, version)`` or None,
        and — for a deduplicated item — the nearest older item of the key
        that carries a value, or None when the chain reaches none (the
        ``d`` flag is ignored, per the paper's referent rule).  ``base``
        is None for an item that has its own value.
        """
        return self.resolve_batch([(key, version)])[0]

    def resolve_batch(
        self, item_keys: Sequence[ItemKey]
    ) -> List[Tuple[Optional[IndexItem], Optional[IndexItem]]]:
        """:meth:`resolve` for a batch of ``(key, version)`` pairs."""
        items = self._items
        hops = 0
        resolved = []
        for item_key in item_keys:
            item = items.get(item_key)
            base: Optional[IndexItem] = None
            if item is not None and item[1]:  # deduplicated
                for _older_version, older in self.older_versions(*item_key):
                    hops += 1
                    if not older[1]:  # carries a value
                        base = older
                        break
            resolved.append((item, base))
        self._charge(len(item_keys), hops)
        return resolved

    # ------------------------------------------------------------------
    # Neighbourhood walks
    # ------------------------------------------------------------------
    def _walk(
        self, index: int, step: int, key: bytes
    ) -> Iterator[Tuple[int, IndexItem]]:
        """Items of ``key`` from sorted position ``index``, ``step`` at a
        time, until the neighbour belongs to another key."""
        keys = self._keys
        items = self._items
        while 0 <= index < len(keys):
            item_key = keys[index]
            if item_key[0] != key:
                return
            yield item_key[1], items[item_key]
            index += step

    def older_versions(
        self, key: bytes, version: int
    ) -> Iterator[Tuple[int, IndexItem]]:
        """Items of ``key`` with smaller versions, newest first."""
        index = bisect_left(self._ordered(), (key, version))
        return self._walk(index - 1, -1, key)

    def newer_versions(
        self, key: bytes, version: int
    ) -> Iterator[Tuple[int, IndexItem]]:
        """Items of ``key`` with larger versions, oldest first."""
        index = bisect_right(self._ordered(), (key, version))
        return self._walk(index, 1, key)

    def versions_of(self, key: bytes) -> Iterator[Tuple[int, IndexItem]]:
        """All items of ``key`` in increasing version order."""
        # The 1-tuple ``(key,)`` sorts before every ``(key, version)``.
        return self._walk(bisect_left(self._ordered(), (key,)), 1, key)

    def latest_version(self, key: bytes) -> Optional[Tuple[int, IndexItem]]:
        """The newest item of ``key``, or None."""
        index = bisect_left(self._ordered(), (key + b"\x00",))
        return next(self._walk(index - 1, -1, key), None)

    def scan(
        self, start_key: bytes, end_key: bytes
    ) -> Iterator[Tuple[bytes, int, IndexItem]]:
        """Items with ``start_key <= key < end_key``, sorted.

        Walks a snapshot of the key range, so a put or drop while the
        scan is suspended cannot shift it; an item dropped meanwhile is
        skipped.
        """
        keys = self._ordered()
        start = bisect_left(keys, (start_key,))
        for item_key in keys[start : bisect_left(keys, (end_key,), start)]:
            item = self._items.get(item_key)
            if item is not None:
                yield item_key[0], item_key[1], item

    def items(self) -> Iterator[Tuple[bytes, int, IndexItem]]:
        """Every item in sorted order."""
        items = self._items
        for item_key in self._ordered():
            yield item_key[0], item_key[1], items[item_key]
