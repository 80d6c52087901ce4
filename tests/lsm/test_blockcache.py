"""Tests for the LSM block cache and compaction invalidation."""

import pytest

from repro.errors import ConfigError
from repro.lsm.blockcache import BlockCache
from repro.lsm.engine import LSMConfig, LSMEngine


# ---------------------------------------------------------------- unit level
def test_cache_validation():
    with pytest.raises(ConfigError):
        BlockCache(0)


def test_hit_miss_accounting():
    cache = BlockCache(1024)
    assert cache.get(("f", 0)) is None
    cache.put(("f", 0), b"block")
    assert cache.get(("f", 0)) == b"block"
    assert cache.hits == 1
    assert cache.misses == 1
    assert cache.hit_rate == 0.5


def test_lru_eviction_order():
    cache = BlockCache(100)
    cache.put(("f", 0), b"a" * 40)
    cache.put(("f", 1), b"b" * 40)
    cache.get(("f", 0))  # refresh block 0
    cache.put(("f", 2), b"c" * 40)  # evicts the LRU: block 1
    assert cache.get(("f", 0)) is not None
    assert cache.get(("f", 1)) is None
    assert cache.evictions == 1


def test_oversized_block_not_cached():
    cache = BlockCache(10)
    cache.put(("f", 0), b"x" * 100)
    assert len(cache._blocks) == 0


def test_replacing_a_key_updates_bytes():
    cache = BlockCache(100)
    cache.put(("f", 0), b"a" * 60)
    cache.put(("f", 0), b"b" * 30)
    assert cache._used_bytes == 30
    assert cache.get(("f", 0)) == b"b" * 30


def test_invalidate_file_drops_only_that_file():
    cache = BlockCache(1000)
    cache.put(("old", 0), b"x" * 10)
    cache.put(("old", 1), b"y" * 10)
    cache.put(("new", 0), b"z" * 10)
    assert cache.invalidate_file("old") == 2
    assert cache.get(("new", 0)) is not None
    assert cache.get(("old", 0)) is None
    assert cache.invalidated == 2


# -------------------------------------------------------------- engine level
def cached_engine():
    return LSMEngine.with_capacity(
        32 * 1024 * 1024,
        config=LSMConfig(
            memtable_bytes=8 * 1024,
            level1_max_bytes=32 * 1024,
            max_file_bytes=8 * 1024,
            block_cache_bytes=2 * 1024 * 1024,
            index_interval=2,
        ),
    )


def test_repeated_reads_hit_the_cache():
    engine = cached_engine()
    for index in range(100):
        engine.put(f"k{index:03d}".encode(), 1, b"v" * 400)
    engine.flush_memtable()
    device = engine.device
    engine.get(b"k050", 1)  # cold
    reads_cold = device.counters.host_pages_read
    engine.get(b"k050", 1)  # warm
    assert device.counters.host_pages_read == reads_cold  # no new I/O
    assert engine.block_cache.hits > 0


def test_compaction_invalidates_cached_blocks():
    engine = cached_engine()
    for index in range(120):
        engine.put(f"k{index:03d}".encode(), 1, b"v" * 400)
    engine.flush_memtable()
    # Warm the cache over the whole key space.
    for index in range(120):
        engine.get(f"k{index:03d}".encode(), 1)
    engine.block_cache.reset_counters()
    # Heavy writes force compactions, which delete the cached files.
    for index in range(240):
        engine.put(f"k{index % 120:03d}".encode(), 2, b"w" * 400)
    engine.flush_memtable()
    assert engine.block_cache.invalidated > 0
    # Reads after compaction are cold again.
    for index in range(120):
        engine.get(f"k{index:03d}".encode(), 1)
    assert engine.block_cache.hit_rate < 0.6


def test_disabled_cache_by_default(lsm):
    assert lsm.block_cache is None
    lsm.put(b"k", 1, b"v")
    assert lsm.get(b"k", 1) == b"v"
