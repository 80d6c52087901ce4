"""A skip list (Pugh, CACM 1990) — the LSM baseline's memtable.

A probabilistic sorted map with expected O(log n) search and insert,
plus ordered iteration and a floor query.  The LSM engine keys it by
``(key_bytes, version)`` so all versions of one key sit adjacent in
increasing version order.

The level generator is seeded, so structures (and therefore comparison
counts and simulated search costs) are reproducible.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import KeyNotFoundError

MAX_LEVEL = 32
_P = 0.25


class _Node:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: Any, value: Any, level: int) -> None:
        self.key = key
        self.value = value
        self.forward: List[Optional["_Node"]] = [None] * level


class SkipListMap:
    """A sorted mapping with ordered iteration and neighbour queries."""

    def __init__(self, seed: int = 0x51DB) -> None:
        self._head = _Node(None, None, MAX_LEVEL)
        self._level = 1
        self._length = 0
        self._random = random.Random(seed)
        #: comparisons performed by the most recent search, for cost models
        self.last_search_steps = 0

    def __len__(self) -> int:
        return self._length

    # ------------------------------------------------------------------
    def _random_level(self) -> int:
        level = 1
        while level < MAX_LEVEL and self._random.random() < _P:
            level += 1
        return level

    def _find_predecessors(self, key: Any) -> List[_Node]:
        """Per-level nodes after which ``key`` would be inserted."""
        update: List[_Node] = [self._head] * MAX_LEVEL
        node = self._head
        steps = 0
        level = self._level - 1
        while level >= 0:
            next_node = node.forward[level]
            while next_node is not None and next_node.key < key:
                node = next_node
                next_node = node.forward[level]
                steps += 1
            update[level] = node
            level -= 1
        self.last_search_steps = steps + self._level
        return update

    def _find(self, key: Any) -> Optional[_Node]:
        # Same descent (and step accounting) as _find_predecessors, but
        # point lookups skip materialising the 32-slot update list.
        node = self._head
        steps = 0
        level = self._level - 1
        while level >= 0:
            next_node = node.forward[level]
            while next_node is not None and next_node.key < key:
                node = next_node
                next_node = node.forward[level]
                steps += 1
            level -= 1
        self.last_search_steps = steps + self._level
        node = node.forward[0]
        if node is not None and node.key == key:
            return node
        return None

    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> bool:
        """Insert or replace; returns True if the key was new."""
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is not None and node.key == key:
            node.value = value
            return False
        level = self._random_level()
        if level > self._level:
            self._level = level
        node = _Node(key, value, level)
        for i in range(level):
            node.forward[i] = update[i].forward[i]
            update[i].forward[i] = node
        self._length += 1
        return True

    def get(self, key: Any, default: Any = KeyNotFoundError) -> Any:
        """Look up ``key``; raises :class:`KeyNotFoundError` by default."""
        node = self._find(key)
        if node is not None:
            return node.value
        if default is KeyNotFoundError:
            raise KeyNotFoundError(f"key not in skip list: {key!r}")
        return default

    # ------------------------------------------------------------------
    # Ordered navigation
    # ------------------------------------------------------------------
    def floor(self, key: Any) -> Optional[Tuple[Any, Any]]:
        """Greatest entry with ``entry.key <= key``, or None."""
        update = self._find_predecessors(key)
        node = update[0].forward[0]
        if node is not None and node.key == key:
            return (node.key, node.value)
        prev = update[0]
        if prev is self._head:
            return None
        return (prev.key, prev.value)

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Tuple[Any, Any]]:
        node = self._head.forward[0]
        while node is not None:
            yield (node.key, node.value)
            node = node.forward[0]
