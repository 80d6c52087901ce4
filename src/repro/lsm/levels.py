"""Level metadata for the LSM tree.

Level 0 holds whole memtable flushes, so its files may overlap and must be
consulted newest-first.  Levels 1 and deeper hold non-overlapping files
sorted by key range; a point lookup touches at most one file per level.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List

from repro.errors import StorageError
from repro.lsm.sstable import Composite, SSTable

DEFAULT_MAX_LEVELS = 7


class LevelState:
    """The files of every level, with the ordering invariants enforced."""

    def __init__(self, max_levels: int = DEFAULT_MAX_LEVELS) -> None:
        if max_levels < 2:
            raise StorageError(f"need at least 2 levels, got {max_levels}")
        self.max_levels = max_levels
        self._levels: List[List[SSTable]] = [[] for _ in range(max_levels)]

    # ------------------------------------------------------------------
    def level(self, index: int) -> List[SSTable]:
        """The file list of one level (L0 newest-first, L1+ by key)."""
        return self._levels[index]

    def add(self, level: int, table: SSTable) -> None:
        """Insert a table, keeping the level's ordering invariant."""
        files = self._levels[level]
        if level == 0:
            # Newest first: lookups stop at the first hit.
            position = 0
            while position < len(files) and files[position].sequence > table.sequence:
                position += 1
            files.insert(position, table)
            return
        keys = [existing.min_key for existing in files]
        position = bisect.bisect_left(keys, table.min_key)
        for neighbour in files[max(0, position - 1) : position + 1]:
            if neighbour.overlaps(table.min_key, table.max_key):
                raise StorageError(
                    f"L{level} overlap: {table.name} [{table.min_key}..."
                    f"{table.max_key}] vs {neighbour.name}"
                )
        files.insert(position, table)

    def remove(self, level: int, tables: List[SSTable]) -> None:
        """Drop tables from a level (they were consumed by compaction)."""
        victims = {id(t) for t in tables}
        self._levels[level] = [
            t for t in self._levels[level] if id(t) not in victims
        ]

    # ------------------------------------------------------------------
    def level_bytes(self, level: int) -> int:
        """Total file bytes on one level."""
        return sum(t.size for t in self._levels[level])

    def file_count(self, level: int) -> int:
        return len(self._levels[level])

    def total_files(self) -> int:
        return sum(len(files) for files in self._levels)

    def deepest_nonempty(self) -> int:
        """Index of the deepest level holding files (-1 if all empty)."""
        for index in range(self.max_levels - 1, -1, -1):
            if self._levels[index]:
                return index
        return -1

    # ------------------------------------------------------------------
    def overlapping(
        self, level: int, low: Composite, high: Composite
    ) -> List[SSTable]:
        """Files on ``level`` intersecting the composite-key range."""
        return [t for t in self._levels[level] if t.overlaps(low, high)]

    def candidate(self, level: int, target: Composite) -> SSTable | None:
        """The at-most-one file on L>=1 that could contain ``target``."""
        files = self._levels[level]
        if not files:
            return None
        keys = [t.min_key for t in files]
        position = bisect.bisect_right(keys, target) - 1
        if position < 0:
            return None
        table = files[position]
        return table if table.max_key >= target else None

    def floor_candidates(
        self, level: int, target: Composite
    ) -> Iterator[SSTable]:
        """Files on L>=1 that could hold the floor of ``target``.

        That is the candidate file plus, if the target precedes its range
        (or there is no candidate), the file immediately before it.
        """
        files = self._levels[level]
        if not files:
            return
        keys = [t.min_key for t in files]
        position = bisect.bisect_right(keys, target) - 1
        if position >= 0:
            yield files[position]

