"""Unit + engine tests for the QinDB record read cache.

Covers the cache's own LRU/counter mechanics, the engine wiring (opt-in
knob, hit = CPU only, dedup chains share the base record's entry), and
the GC interaction: collecting a segment must invalidate its cached
records *before* the erase so no stale value can ever be served.
"""

import pytest

from repro.errors import ConfigError
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.readcache import ENTRY_OVERHEAD_BYTES, RecordCache

SMALL_CAPACITY = 16 * 1024 * 1024


def make_engine(cache_bytes, **overrides) -> QinDB:
    config = QinDBConfig(
        segment_bytes=256 * 1024,
        read_cache_bytes=cache_bytes,
        **overrides,
    )
    return QinDB.with_capacity(SMALL_CAPACITY, config=config)


def loc(segment_id, offset=0, length=16):
    return (segment_id, offset, length)


# ------------------------------------------------------------- RecordCache
def test_cache_capacity_validation():
    with pytest.raises(ConfigError):
        RecordCache(0)
    with pytest.raises(ConfigError):
        RecordCache(-1)


def test_cache_hit_miss_counters_and_lru_refresh():
    cache = RecordCache(4096)
    assert cache.get(loc(0)) is None
    assert cache.counters.misses == 1
    cache.put(loc(0), b"value")
    assert cache.get(loc(0)) == b"value"
    assert cache.counters.hits == 1
    counters = cache.counters
    assert counters.hits / (counters.hits + counters.misses) == 0.5
    cache.reset_counters()
    assert cache.counters.hits == 0 and cache.counters.misses == 0


def test_cache_evicts_lru_first():
    entry = 100 + ENTRY_OVERHEAD_BYTES
    cache = RecordCache(3 * entry)
    for segment in range(3):
        cache.put(loc(segment), bytes(100))
    cache.get(loc(0))  # refresh 0: now 1 is least recent
    cache.put(loc(3), bytes(100))
    assert cache.counters.evictions == 1
    assert cache.get(loc(1)) is None  # evicted
    assert cache.get(loc(0)) is not None
    assert cache.used_bytes <= cache.capacity_bytes


def test_cache_replacing_entry_reaccounts_bytes():
    cache = RecordCache(4096)
    cache.put(loc(0), bytes(100))
    cache.put(loc(0), bytes(50))
    assert len(cache) == 1
    assert cache.used_bytes == 50 + ENTRY_OVERHEAD_BYTES


def test_cache_rejects_value_larger_than_capacity():
    cache = RecordCache(64)
    cache.put(loc(0), bytes(1024))
    assert len(cache) == 0


def test_cache_empty_values_are_bounded_by_overhead():
    cache = RecordCache(4 * ENTRY_OVERHEAD_BYTES)
    for offset in range(16):
        cache.put(loc(0, offset=offset), b"")
    assert len(cache) <= 4  # zero-length values still cost overhead


def test_cache_invalidate_segment_is_selective():
    cache = RecordCache(1 << 20)
    cache.put(loc(1, offset=0), b"a")
    cache.put(loc(1, offset=64), b"b")
    cache.put(loc(2, offset=0), b"c")
    assert cache.invalidate_segment(1) == 2
    assert cache.counters.invalidated == 2
    assert cache.get(loc(1, offset=0)) is None
    assert cache.get(loc(2, offset=0)) == b"c"


# ----------------------------------------------------------- engine wiring
def test_cache_disabled_by_default():
    engine = QinDB.with_capacity(SMALL_CAPACITY)
    assert engine.read_cache is None
    engine.put(b"k", 1, b"v")
    engine.get(b"k", 1)
    stats = engine.stats()
    assert stats.read_cache_hits == 0
    assert stats.read_cache_misses == 0
    assert stats.read_cache_hit_rate == 0.0


def test_cache_zero_bytes_means_disabled():
    engine = make_engine(0)
    assert engine.read_cache is None
    with pytest.raises(ConfigError):
        QinDBConfig(read_cache_bytes=-1)


def test_repeat_get_hits_cache_and_skips_device_reads():
    engine = make_engine(1 << 20)
    engine.put(b"k", 1, b"v" * 4096)
    engine.flush()
    assert engine.get(b"k", 1) == b"v" * 4096  # miss: populates
    pages_read = engine.device.counters.total_pages_read
    before = engine.device.now
    assert engine.get(b"k", 1) == b"v" * 4096  # hit
    assert engine.device.counters.total_pages_read == pages_read
    assert engine.device.now > before  # ...but CPU time was still charged
    stats = engine.stats()
    assert stats.read_cache_hits == 1
    assert stats.read_cache_misses == 1
    assert stats.read_cache_used_bytes > 4096


def test_dedup_chain_shares_one_cached_entry():
    engine = make_engine(1 << 20)
    engine.put(b"url", 1, b"base-value")
    for version in (2, 3, 4):
        engine.put(b"url", version, None)
    assert engine.get(b"url", 4) == b"base-value"  # miss on base record
    pages_read = engine.device.counters.total_pages_read
    for version in (2, 3, 4):
        assert engine.get(b"url", version) == b"base-value"
    # Every version resolved from the same cached base record.
    assert engine.device.counters.total_pages_read == pages_read
    assert engine.read_cache.counters.hits == 3
    assert len(engine.read_cache) == 1


def test_scan_populates_and_uses_the_cache():
    engine = make_engine(1 << 20)
    for index in range(8):
        engine.put(f"k{index}".encode(), 1, b"v" * 512)
    list(engine.scan(b"k0", b"k9"))
    pages_read = engine.device.counters.total_pages_read
    assert list(engine.scan(b"k0", b"k9"))  # second pass: all hits
    assert engine.device.counters.total_pages_read == pages_read


# ------------------------------------------------------- GC x invalidation
def _fill_segments(engine, versions=3):
    """Write several versions of a key set so early segments seal."""
    for version in range(1, versions + 1):
        for index in range(16):
            engine.put(
                f"key-{index:04d}".encode(), version, bytes([version]) * 8192
            )
    engine.flush()


def test_collect_segment_invalidates_cached_records():
    engine = make_engine(4 << 20, gc_enabled=False)
    _fill_segments(engine)
    # Cache every version-1 record, then kill versions 1-2 so the early
    # segments' occupancy falls through the GC threshold.
    for index in range(16):
        assert engine.get(f"key-{index:04d}".encode(), 1) == bytes([1]) * 8192
    for version in (1, 2):
        for index in range(16):
            engine.delete(f"key-{index:04d}".encode(), version)
    victims = engine.gc_table.victims(
        exclude={engine.aofs.active_segment_id}
    )
    assert victims, "test setup must produce a collectable segment"
    victim = victims[0]
    cached_in_victim = [
        location
        for location in engine.read_cache._values
        if location[0] == victim
    ]
    assert cached_in_victim, "test setup must cache records in the victim"
    engine.collect_segment(victim)
    assert all(
        segment_id != victim
        for segment_id, _offset, _length in engine.read_cache._values
    )
    assert engine.stats().read_cache_invalidated >= len(cached_in_victim)


def test_get_after_gc_rereads_from_new_location():
    """A record GC moved must be re-read from its *new* segment — the
    cache cannot serve the old copy (its entry died with the segment)."""
    engine = make_engine(4 << 20, gc_enabled=False)
    engine.put(b"moved", 1, b"payload" * 512)
    # Live record + enough dead churn to make segment 0 a victim.
    for index in range(80):
        engine.put(b"churn-%02d" % index, 1, b"x" * 8192)
        engine.delete(b"churn-%02d" % index, 1)
    engine.flush()
    assert engine.get(b"moved", 1) == b"payload" * 512  # cached
    old_location = engine.memtable.get(b"moved", 1)[0]
    victim = old_location[0]
    assert victim != engine.aofs.active_segment_id
    engine.collect_segment(victim)
    engine.flush()  # the moved record must be on flash, not a page buffer
    new_location = engine.memtable.get(b"moved", 1)[0]
    assert new_location[0] != victim
    misses_before = engine.read_cache.counters.misses
    pages_before = engine.device.counters.total_pages_read
    assert engine.get(b"moved", 1) == b"payload" * 512
    # The read was a cache miss satisfied from the new location.
    assert engine.read_cache.counters.misses == misses_before + 1
    assert engine.device.counters.total_pages_read > pages_before
    assert new_location in engine.read_cache._values


def test_recovered_engine_starts_with_a_cold_cache():
    from repro.qindb.checkpoint import crash, recover

    engine = make_engine(1 << 20)
    engine.put(b"k", 1, b"v" * 256)
    engine.flush()
    engine.get(b"k", 1)
    assert len(engine.read_cache) == 1
    recovered = recover(crash(engine), config=engine.config)
    assert recovered.read_cache is not None
    assert len(recovered.read_cache) == 0
    assert recovered.get(b"k", 1) == b"v" * 256
