"""Unit + property tests for the LSM engine's public interface."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import EngineClosedError, KeyNotFoundError, StorageError
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.lsm.recovery import crash


def test_put_get_roundtrip(lsm):
    lsm.put(b"url", 1, b"value")
    assert lsm.get(b"url", 1) == b"value"


def test_get_missing_raises(lsm):
    with pytest.raises(KeyNotFoundError):
        lsm.get(b"nope", 1)


def test_key_validation(lsm):
    with pytest.raises(StorageError):
        lsm.put(b"", 1, b"v")


def test_reads_hit_all_storage_tiers(lsm):
    # Memtable hit.
    lsm.put(b"fresh", 1, b"in-memtable")
    assert lsm.get(b"fresh", 1) == b"in-memtable"
    # Force flush: L0 hit.
    lsm.flush_memtable()
    assert lsm.get(b"fresh", 1) == b"in-memtable"
    # Bury under enough data to compact into deeper levels.
    for index in range(400):
        lsm.put(f"fill-{index:04d}".encode(), 1, b"x" * 120)
    lsm.flush_memtable()
    assert lsm.get(b"fresh", 1) == b"in-memtable"


def test_newest_version_of_same_composite_wins(lsm):
    lsm.put(b"k", 1, b"first")
    lsm.flush_memtable()
    lsm.put(b"k", 1, b"second")  # overwrite, now in memtable
    assert lsm.get(b"k", 1) == b"second"
    lsm.flush_memtable()  # both now on disk in different L0 files
    assert lsm.get(b"k", 1) == b"second"


def test_delete_tombstone_shadows_older_copies(lsm):
    lsm.put(b"k", 1, b"v")
    lsm.flush_memtable()
    lsm.delete(b"k", 1)
    with pytest.raises(KeyNotFoundError):
        lsm.get(b"k", 1)
    lsm.flush_memtable()
    with pytest.raises(KeyNotFoundError):
        lsm.get(b"k", 1)
    assert not lsm.exists(b"k", 1)


def test_dedup_put_traceback(lsm):
    lsm.put(b"url", 1, b"base")
    lsm.put(b"url", 2, None)
    assert lsm.get(b"url", 2) == b"base"
    lsm.flush_memtable()
    assert lsm.get(b"url", 2) == b"base"


def test_traceback_across_flushed_tables(lsm):
    lsm.put(b"url", 1, b"base")
    lsm.flush_memtable()
    for index in range(100):
        lsm.put(f"pad-{index:03d}".encode(), 1, b"p" * 100)
    lsm.flush_memtable()
    lsm.put(b"url", 5, None)
    assert lsm.get(b"url", 5) == b"base"


def test_traceback_chain_of_dedups(lsm):
    lsm.put(b"url", 1, b"root")
    for version in (2, 3, 4):
        lsm.put(b"url", version, None)
        lsm.flush_memtable()
    assert lsm.get(b"url", 4) == b"root"


def test_traceback_without_base_raises(lsm):
    lsm.put(b"url", 3, None)
    with pytest.raises(KeyNotFoundError):
        lsm.get(b"url", 3)


def test_stats_fields(lsm):
    lsm.put(b"k", 1, b"v" * 1000)
    stats = lsm.stats()
    assert stats.user_bytes_written == 1001
    assert stats.wal_bytes_written > 1000
    assert stats.memtable_items == 1
    lsm.flush_memtable()
    stats = lsm.stats()
    assert stats.flush_bytes_written > 0
    assert stats.sstable_count == 1
    assert stats.memtable_items == 0
    assert stats.software_write_amplification > 1.0


def test_close_rejects_operations(lsm):
    lsm.put(b"k", 1, b"v")
    crash(lsm)  # a crashed engine is closed
    with pytest.raises(EngineClosedError):
        lsm.get(b"k", 1)


def test_wal_resets_after_flush(lsm):
    lsm.put(b"k", 1, b"v" * 1000)
    assert lsm.wal.size > 0
    lsm.flush_memtable()
    assert lsm.wal.size == 0


def test_config_validation():
    with pytest.raises(Exception):
        LSMConfig(memtable_bytes=0)
    with pytest.raises(Exception):
        LSMConfig(l0_compaction_trigger=1)


KEYS = [b"ka", b"kb", b"kc"]
VERSIONS = [1, 2, 3]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "delete", "get", "flush"]),
            st.sampled_from(KEYS),
            st.sampled_from(VERSIONS),
            st.integers(min_value=0, max_value=2),
        ),
        max_size=50,
    )
)
def test_property_lsm_matches_dict_model(ops):
    """Direct (non-dedup) operations match a last-write-wins dict."""
    engine = LSMEngine.with_capacity(
        16 * 1024 * 1024,
        config=LSMConfig(
            memtable_bytes=2 * 1024,
            level1_max_bytes=8 * 1024,
            max_file_bytes=2 * 1024,
        ),
    )
    model = {}
    for action, key, version, salt in ops:
        if action == "put":
            value = bytes([salt]) * (50 + salt)
            engine.put(key, version, value)
            model[(key, version)] = value
        elif action == "delete":
            engine.delete(key, version)
            model.pop((key, version), None)
        elif action == "flush":
            engine.flush_memtable()
        else:
            expected = model.get((key, version))
            if expected is None:
                with pytest.raises(KeyNotFoundError):
                    engine.get(key, version)
            else:
                assert engine.get(key, version) == expected
    for key in KEYS:
        for version in VERSIONS:
            expected = model.get((key, version))
            if expected is None:
                with pytest.raises(KeyNotFoundError):
                    engine.get(key, version)
            else:
                assert engine.get(key, version) == expected
