"""Unit tests for QinDB's mutated operations (paper Figure 2)."""

import pytest

from repro.errors import EngineClosedError, KeyNotFoundError, StorageError
from repro.qindb.checkpoint import crash
from repro.qindb.engine import QinDB, QinDBConfig


def test_put_get_roundtrip(qindb):
    qindb.put(b"url", 1, b"value-1")
    assert qindb.get(b"url", 1) == b"value-1"


def test_get_missing_raises(qindb):
    with pytest.raises(KeyNotFoundError):
        qindb.get(b"nope", 1)


def test_key_validation(qindb):
    with pytest.raises(StorageError):
        qindb.put(b"", 1, b"v")
    with pytest.raises(StorageError):
        qindb.put("not-bytes", 1, b"v")  # type: ignore[arg-type]


def test_dedup_put_resolves_by_traceback(qindb):
    qindb.put(b"url", 1, b"original")
    qindb.put(b"url", 2, None)
    assert qindb.get(b"url", 2) == b"original"


def test_traceback_chains_through_multiple_dedups(qindb):
    qindb.put(b"url", 1, b"base")
    for version in (2, 3, 4, 5):
        qindb.put(b"url", version, None)
    assert qindb.get(b"url", 5) == b"base"


def test_traceback_stops_at_nearest_value(qindb):
    qindb.put(b"url", 1, b"old")
    qindb.put(b"url", 2, b"new")
    qindb.put(b"url", 3, None)
    assert qindb.get(b"url", 3) == b"new"


def test_traceback_without_base_raises(qindb):
    qindb.put(b"url", 2, None)
    with pytest.raises(KeyNotFoundError, match="chain"):
        qindb.get(b"url", 2)


def test_delete_hides_item(qindb):
    qindb.put(b"url", 1, b"v")
    qindb.delete(b"url", 1)
    with pytest.raises(KeyNotFoundError):
        qindb.get(b"url", 1)
    assert not qindb.exists(b"url", 1)


def test_delete_missing_raises(qindb):
    with pytest.raises(KeyNotFoundError):
        qindb.delete(b"ghost", 1)


def test_traceback_reads_through_deleted_older_version(qindb):
    """The paper's referent rule: a deleted record's value stays usable
    for newer deduplicated versions until GC reclaims it."""
    qindb.put(b"url", 1, b"kept-value")
    qindb.put(b"url", 2, None)
    qindb.delete(b"url", 1)
    assert qindb.get(b"url", 2) == b"kept-value"


def test_versions_are_independent_items(qindb):
    qindb.put(b"url", 1, b"v1")
    qindb.put(b"url", 2, b"v2")
    qindb.delete(b"url", 1)
    assert qindb.get(b"url", 2) == b"v2"
    with pytest.raises(KeyNotFoundError):
        qindb.get(b"url", 1)


def test_exists(qindb):
    assert not qindb.exists(b"k", 1)
    qindb.put(b"k", 1, b"v")
    assert qindb.exists(b"k", 1)


def test_scan_returns_sorted_live_items(qindb):
    qindb.put(b"c", 1, b"cv")
    qindb.put(b"a", 1, b"av")
    qindb.put(b"b", 1, b"bv")
    qindb.put(b"b", 2, None)  # dedup resolves during scan
    qindb.delete(b"a", 1)
    result = list(qindb.scan(b"a", b"d"))
    assert result == [(b"b", 1, b"bv"), (b"b", 2, b"bv"), (b"c", 1, b"cv")]


def test_user_byte_accounting(qindb):
    qindb.put(b"key", 1, b"12345")
    assert qindb.user_bytes_written == 3 + 5
    qindb.put(b"key", 2, None)  # dedup put counts only the key
    assert qindb.user_bytes_written == 8 + 3
    qindb.get(b"key", 1)
    assert qindb.user_bytes_read == 3 + 5


def test_stats_snapshot(qindb):
    qindb.put(b"key", 1, b"x" * 1000)
    stats = qindb.stats()
    assert stats.user_bytes_written == 1003
    assert stats.aof_bytes_appended >= 1003
    assert stats.memtable_items == 1
    assert stats.segment_count == 1
    assert stats.software_write_amplification >= 1.0
    assert stats.hardware_write_amplification == 1.0  # native path


def test_time_advances_with_operations(qindb):
    t0 = qindb.device.now
    qindb.put(b"key", 1, b"x" * 100_000)
    assert qindb.device.now > t0


def test_close_rejects_further_operations(qindb):
    qindb.put(b"k", 1, b"v")
    crash(qindb)  # a crashed engine is closed
    with pytest.raises(EngineClosedError):
        qindb.put(b"k", 2, b"v")
    with pytest.raises(EngineClosedError):
        qindb.get(b"k", 1)


def test_with_capacity_constructor():
    engine = QinDB.with_capacity(8 * 1024 * 1024)
    engine.put(b"a", 1, b"b")
    assert engine.get(b"a", 1) == b"b"


def test_config_validation():
    with pytest.raises(Exception):
        QinDBConfig(segment_bytes=0)
    with pytest.raises(Exception):
        QinDBConfig(gc_occupancy_threshold=1.5)
    with pytest.raises(Exception):
        QinDBConfig(cpu_per_op_s=-1)


def test_empty_value_is_a_real_value(qindb):
    """b'' is a stored value — distinct from None (deduplicated)."""
    qindb.put(b"k", 1, b"base")
    qindb.put(b"k", 2, b"")
    assert qindb.get(b"k", 2) == b""  # no traceback to version 1


def test_version_zero_and_huge_versions(qindb):
    qindb.put(b"k", 0, b"v0")
    qindb.put(b"k", 2**63, b"vbig")
    assert qindb.get(b"k", 0) == b"v0"
    assert qindb.get(b"k", 2**63) == b"vbig"


def test_scan_empty_range_yields_nothing(qindb):
    qindb.put(b"m", 1, b"v")
    assert list(qindb.scan(b"x", b"z")) == []
    assert list(qindb.scan(b"z", b"a")) == []  # inverted bounds


def test_scan_skips_broken_dedup_chains():
    """A deduplicated item whose base was never stored is unreadable;
    scan must raise the same way get does (no silent corruption)."""
    import pytest as _pytest

    from repro.errors import KeyNotFoundError
    from repro.qindb.engine import QinDB

    engine = QinDB.with_capacity(8 * 1024 * 1024)
    engine.put(b"orphan", 5, None)
    with _pytest.raises(KeyNotFoundError):
        list(engine.scan(b"a", b"z"))


def test_interleaved_keys_do_not_cross_traceback(qindb):
    qindb.put(b"aaa", 1, b"A")
    qindb.put(b"aab", 2, None)  # no version 1 of aab anywhere
    with pytest.raises(KeyNotFoundError):
        qindb.get(b"aab", 2)  # must NOT resolve to aaa's value


def test_scan_holds_a_read_in_flight_slot(qindb):
    for index in range(4):
        qindb.put(f"k{index}".encode(), 1, b"v")
    iterator = qindb.scan(b"k0", b"k9")
    assert qindb.reads_in_flight == 0  # generators start lazily
    next(iterator)
    assert qindb.reads_in_flight == 1
    iterator.close()
    assert qindb.reads_in_flight == 0
    list(qindb.scan(b"k0", b"k9"))  # exhaustion also releases the slot
    assert qindb.reads_in_flight == 0


def test_open_scan_defers_gc_from_concurrent_puts():
    """The lazy-GC deferral rule must see an in-flight scan: a put that
    lands mid-scan cannot collect a segment the scan's captured items
    still point at (free space permitting)."""
    from repro.qindb.engine import QinDB, QinDBConfig

    engine = QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
    )
    engine.put(b"stable", 1, b"s" * 1024)
    iterator = engine.scan(b"a", b"z")
    next(iterator)
    # Churn: every record dies as it lands, sealing dead segments.
    for index in range(40):
        engine.put(b"churn-%02d" % index, 1, b"x" * 32768)
        engine.delete(b"churn-%02d" % index, 1)
    assert engine.gc_runs == 0  # deferred while the scan is open
    iterator.close()
    engine.put(b"churn-40", 1, b"x" * 32768)
    assert engine.gc_runs >= 1  # collection resumed once the scan ended


def test_delete_heavy_phase_still_checkpoints():
    """Deletes append tombstone bytes; a delete-only phase must cross
    the periodic-checkpoint watermark just as a put phase does."""
    from repro.qindb.engine import QinDB, QinDBConfig

    engine = QinDB.with_capacity(
        16 * 1024 * 1024,
        config=QinDBConfig(
            segment_bytes=256 * 1024,
            checkpoint_interval_bytes=4096,
            gc_enabled=False,
        ),
    )
    keys = [b"k" * 100 + f"{index:04d}".encode() for index in range(100)]
    for key in keys:
        engine.put(key, 1, b"v" * 16)
    checkpoint_after_puts = engine.latest_checkpoint
    assert checkpoint_after_puts is not None
    for key in keys:
        engine.delete(key, 1)
    assert engine.latest_checkpoint is not None
    assert engine.latest_checkpoint is not checkpoint_after_puts


def test_stats_on_empty_engine(qindb):
    stats = qindb.stats()
    assert stats.user_bytes_written == 0
    assert stats.software_write_amplification == 1.0
    assert stats.memtable_items == 0
    assert stats.disk_used_bytes == 0
