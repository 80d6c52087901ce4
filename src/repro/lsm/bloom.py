"""A plain bloom filter for SSTable key lookups.

LevelDB's ``FilterPolicy`` defaults to ~10 bits per key with a handful of
hash probes; we match that.  Hashing is CRC32 with distinct salts, which
is deterministic across runs (important: bloom false positives cost
simulated reads, and runs must reproduce).
"""

from __future__ import annotations

import zlib

from repro.errors import ConfigError


class BloomFilter:
    """Fixed-size bloom filter over byte strings."""

    def __init__(self, expected_items: int, bits_per_key: int = 10) -> None:
        if expected_items < 0:
            raise ConfigError(f"expected_items must be >= 0: {expected_items}")
        if bits_per_key < 1:
            raise ConfigError(f"bits_per_key must be >= 1: {bits_per_key}")
        self._bit_count = max(64, expected_items * bits_per_key)
        self._bits = bytearray(-(-self._bit_count // 8))
        # LevelDB uses k = bits_per_key * ln2 ~= 0.69 * bits_per_key.
        self._hash_count = max(1, min(16, int(bits_per_key * 0.69)))

    def _probes(self, key: bytes):
        # Double hashing: two independent CRCs combined per probe.
        h1 = zlib.crc32(key) & 0xFFFFFFFF
        h2 = zlib.crc32(key, 0x9E3779B9) | 1
        for i in range(self._hash_count):
            yield (h1 + i * h2) % self._bit_count

    def add(self, key: bytes) -> None:
        """Insert a key."""
        for bit in self._probes(key):
            self._bits[bit >> 3] |= 1 << (bit & 7)

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        return all(self._bits[bit >> 3] & (1 << (bit & 7)) for bit in self._probes(key))

    @property
    def size_bytes(self) -> int:
        """Memory footprint of the bit array."""
        return len(self._bits)
