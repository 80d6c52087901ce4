"""The in-memory GC table: per-segment occupancy accounting.

The paper's DEL path "updates the occupancy ratio of the corresponding
file containing the deleted key and value, which are maintained in a GC
table in the memory", and GC fires when a file's occupancy reaches the
threshold (25% in the evaluation).  This module is that table; the actual
collection lives in the engine, which owns the memtable and the AOFs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import StorageError


@dataclass
class SegmentOccupancy:
    """Live/dead byte accounting for one AOF segment."""

    segment_id: int
    total_bytes: int = 0
    dead_bytes: int = 0

    @property
    def live_bytes(self) -> int:
        return self.total_bytes - self.dead_bytes

    @property
    def occupancy(self) -> float:
        """Fraction of appended bytes still live (1.0 for empty segments)."""
        if self.total_bytes == 0:
            return 1.0
        return self.live_bytes / self.total_bytes


class GCTable:
    """Tracks occupancy per segment and nominates GC victims."""

    def __init__(self, threshold: float = 0.25) -> None:
        if not 0.0 < threshold < 1.0:
            raise StorageError(f"GC threshold must be in (0, 1), got {threshold}")
        self.threshold = threshold
        self._segments: Dict[int, SegmentOccupancy] = {}
        #: segment ids currently at or below the threshold — maintained
        #: on every accounting change so :meth:`victims` scans only the
        #: (few) collectable rows instead of every live segment per call
        self._below: set = set()

    # ------------------------------------------------------------------
    def entry(self, segment_id: int) -> SegmentOccupancy:
        """The accounting row for a segment, created on first touch."""
        row = self._segments.get(segment_id)
        if row is None:
            row = SegmentOccupancy(segment_id)
            self._segments[segment_id] = row
        return row

    def _update_membership(self, row: SegmentOccupancy) -> None:
        # Same expression as :meth:`victims` used when it scanned every
        # row, so membership is exactly the set that scan would select.
        if row.total_bytes and row.occupancy <= self.threshold:
            self._below.add(row.segment_id)
        else:
            self._below.discard(row.segment_id)

    def record_appended(self, segment_id: int, nbytes: int) -> None:
        """Account freshly appended record bytes to a segment."""
        row = self.entry(segment_id)
        row.total_bytes += nbytes
        if row.dead_bytes:
            self._update_membership(row)

    def record_dead_many(self, locations) -> None:
        """Batch :meth:`record_dead` for locations that died together."""
        totals: Dict[int, int] = {}
        get = totals.get
        for segment_id, _offset, length in locations:
            totals[segment_id] = get(segment_id, 0) + length
        for segment_id, nbytes in totals.items():
            self.record_dead(segment_id, nbytes)

    def record_dead(self, segment_id: int, nbytes: int) -> None:
        """Account record bytes that just became dead (delete or retire);
        a restore books them live again as a negative amount."""
        row = self.entry(segment_id)
        row.dead_bytes += nbytes
        if row.dead_bytes > row.total_bytes:
            raise StorageError(
                f"segment {segment_id} accounting corrupt: "
                f"dead {row.dead_bytes} > total {row.total_bytes}"
            )
        self._update_membership(row)

    def forget(self, segment_id: int) -> None:
        """Drop a segment's row after the segment is erased."""
        self._segments.pop(segment_id, None)
        self._below.discard(segment_id)

    # ------------------------------------------------------------------
    def victims(self, exclude: frozenset | set = frozenset()) -> List[int]:
        """Segments at or below the occupancy threshold, worst first."""
        below = self._below
        if not below:
            return []
        segments = self._segments
        candidates = [
            segments[segment_id]
            for segment_id in below
            if segment_id not in exclude
        ]
        candidates.sort(key=lambda row: (row.occupancy, row.segment_id))
        return [row.segment_id for row in candidates]

    def snapshot(self) -> Dict[int, float]:
        """segment_id -> occupancy, for monitoring and tests."""
        return {sid: row.occupancy for sid, row in self._segments.items()}
