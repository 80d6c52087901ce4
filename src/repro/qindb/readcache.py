"""An LRU cache of decoded record values — QinDB's opt-in read cache.

The paper argues QinDB needs no *block* cache: the index is fully in
memory and a read is one positioned SSD access.  That one access still
pays the device's page-read latency on every GET, though, so a hot read
set leaves easy latency on the table.  This cache holds decoded record
*values* keyed by :class:`~repro.qindb.aof.RecordLocation` — a hit serves
from RAM and charges CPU only.

Two properties keep it honest:

* **Locations are never reused.**  Segment ids increase monotonically and
  a record's address is ``(segment_id, offset)``, so a cached entry can
  never alias a *different* record.  The only way an entry goes stale is
  its segment being collected — which is exactly why
  :meth:`~repro.qindb.engine.QinDB.collect_segment` calls
  :meth:`invalidate_segment` before the erase (the same GC-moves-data,
  cache-dies story the LSM block cache tells for compactions).
* **Dedup chains share one entry.**  Traceback resolves a value-less
  version to its base record's location; caching by *location* means every
  version of a hot dedup chain hits the same entry.

The counter/eviction idiom mirrors :class:`repro.lsm.blockcache.BlockCache`
(byte-bounded ``OrderedDict`` LRU), with the tallies factored into
:class:`repro.core.metrics.CacheCounters` so both caches report hit rates
the same way.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.metrics import CacheCounters
from repro.errors import ConfigError
from repro.qindb.aof import RecordLocation

#: accounted RAM per entry beyond the value bytes (location key, LRU links);
#: also what keeps zero-length values from being free and uncountable.
ENTRY_OVERHEAD_BYTES = 48


class RecordCache:
    """A byte-bounded LRU of decoded record values keyed by location."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(f"cache capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._values: "OrderedDict[RecordLocation, bytes]" = OrderedDict()
        self._used_bytes = 0
        self.counters = CacheCounters()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._values)

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (per-phase measurements)."""
        self.counters.reset_lookups()

    @staticmethod
    def _entry_bytes(value: bytes) -> int:
        return len(value) + ENTRY_OVERHEAD_BYTES

    # ------------------------------------------------------------------
    def get(self, location: RecordLocation) -> Optional[bytes]:
        """Look up a value; None on miss.  Hits refresh LRU position."""
        value = self._values.get(location)
        if value is None:
            self.counters.misses += 1
            return None
        self._values.move_to_end(location)
        self.counters.hits += 1
        return value

    def put(self, location: RecordLocation, value: bytes) -> None:
        """Insert a value, evicting LRU entries to stay within capacity."""
        if self._entry_bytes(value) > self.capacity_bytes:
            return  # larger than the whole cache: not cacheable
        existing = self._values.pop(location, None)
        if existing is not None:
            self._used_bytes -= self._entry_bytes(existing)
        self._values[location] = value
        self._used_bytes += self._entry_bytes(value)
        while self._used_bytes > self.capacity_bytes:
            _victim, evicted = self._values.popitem(last=False)
            self._used_bytes -= self._entry_bytes(evicted)
            self.counters.evictions += 1

    def invalidate_segment(self, segment_id: int) -> int:
        """Drop every value of one AOF segment (GC is about to erase it)."""
        victims = [loc for loc in self._values if loc[0] == segment_id]
        for location in victims:
            self._used_bytes -= self._entry_bytes(self._values.pop(location))
        self.counters.invalidated += len(victims)
        return len(victims)
