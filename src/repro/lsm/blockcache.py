"""An LRU block cache for SSTable reads — and its compaction problem.

Paper Section 2.1: the authors rejected LSM-trees partly because
"frequent compactions in LSM-tree are not affordable" — every compaction
rewrites data into *new* files, so whatever the buffer cache held for
the old files is invalidated wholesale (the observation behind
LSbM-tree [5]).  QinDB needs no block cache at all: its index is fully
in memory and a read is one positioned SSD access.

This cache makes that argument measurable: SSTable point reads populate
it, file deletion (the tail end of every compaction) invalidates every
cached block of the file, and the hit/miss/invalidation counters feed
the A6 ablation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.errors import ConfigError

#: cache key: (table file name, index slot)
BlockKey = Tuple[str, int]


class BlockCache:
    """A byte-bounded LRU of SSTable blocks."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(f"cache capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._blocks: "OrderedDict[BlockKey, bytes]" = OrderedDict()
        self._used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidated = 0

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (per-phase measurements)."""
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def get(self, key: BlockKey) -> Optional[bytes]:
        """Look up a block; None on miss.  Hits refresh LRU position."""
        block = self._blocks.get(key)
        if block is None:
            self.misses += 1
            return None
        self._blocks.move_to_end(key)
        self.hits += 1
        return block

    def put(self, key: BlockKey, block: bytes) -> None:
        """Insert a block, evicting LRU entries to stay within capacity."""
        if len(block) > self.capacity_bytes:
            return  # larger than the whole cache: not cacheable
        existing = self._blocks.pop(key, None)
        if existing is not None:
            self._used_bytes -= len(existing)
        self._blocks[key] = block
        self._used_bytes += len(block)
        while self._used_bytes > self.capacity_bytes:
            _victim, evicted = self._blocks.popitem(last=False)
            self._used_bytes -= len(evicted)
            self.evictions += 1

    def invalidate_file(self, name: str) -> int:
        """Drop every block of one table file (compaction deleted it)."""
        victims = [key for key in self._blocks if key[0] == name]
        for key in victims:
            self._used_bytes -= len(self._blocks.pop(key))
        self.invalidated += len(victims)
        return len(victims)
