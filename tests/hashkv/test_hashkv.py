"""Tests for the hash-indexed baseline engine."""

import pytest

from repro.errors import KeyNotFoundError, StorageError
from repro.hashkv.engine import HashKV, HashKVConfig


@pytest.fixture
def hashkv():
    return HashKV.with_capacity(
        16 * 1024 * 1024, config=HashKVConfig(segment_bytes=512 * 1024)
    )


def test_put_get_roundtrip(hashkv):
    hashkv.put(b"k", 1, b"value")
    assert hashkv.get(b"k", 1) == b"value"
    assert len(hashkv._table) == 1


def test_get_missing_raises(hashkv):
    with pytest.raises(KeyNotFoundError):
        hashkv.get(b"nope", 1)


def test_key_validation(hashkv):
    with pytest.raises(StorageError):
        hashkv.put(b"", 1, b"v")


def test_dedup_probe_resolution(hashkv):
    hashkv.put(b"k", 1, b"base")
    hashkv.put(b"k", 2, None)
    hashkv.put(b"k", 3, None)
    assert hashkv.get(b"k", 3) == b"base"


def test_dedup_probe_through_version_holes(hashkv):
    hashkv.put(b"k", 1, b"base")
    hashkv.put(b"k", 5, None)  # versions 2-4 never existed
    assert hashkv.get(b"k", 5) == b"base"


def test_dedup_chain_without_base_raises(hashkv):
    hashkv.put(b"k", 2, None)
    with pytest.raises(KeyNotFoundError):
        hashkv.get(b"k", 2)


def test_scan_is_correct_despite_the_sweep(hashkv):
    for index in (3, 1, 4, 0, 2):
        hashkv.put(f"k{index}".encode(), 1, f"v{index}".encode())
    result = list(hashkv.scan(b"k1", b"k4"))
    assert result == [
        (b"k1", 1, b"v1"),
        (b"k2", 1, b"v2"),
        (b"k3", 1, b"v3"),
    ]


def test_scan_cost_scales_with_table_not_result():
    """The structural weakness: a tiny range over a huge table costs as
    much as a tiny range over a small table is cheap."""

    def scan_cost(table_items):
        engine = HashKV.with_capacity(32 * 1024 * 1024)
        for index in range(table_items):
            engine.put(f"k{index:06d}".encode(), 1, b"v" * 64)
        before = engine.device.now
        list(engine.scan(b"k000000", b"k000005"))  # 5 results, always
        return engine.device.now - before

    # The fixed cost (5 record reads) is identical; the sweep term grows
    # with the table.
    assert scan_cost(8000) > scan_cost(400) * 3


def test_qindb_scan_cost_scales_with_result_not_table():
    """The contrast: QinDB's sorted memtable pays for what it returns."""
    from repro.qindb.engine import QinDB, QinDBConfig

    def scan_cost(table_items):
        engine = QinDB.with_capacity(
            32 * 1024 * 1024, config=QinDBConfig(segment_bytes=1024 * 1024)
        )
        for index in range(table_items):
            engine.put(f"k{index:06d}".encode(), 1, b"v" * 64)
        before = engine.device.now
        list(engine.scan(b"k000000", b"k000005"))
        return engine.device.now - before

    assert scan_cost(4000) < scan_cost(400) * 3


def test_config_validation():
    with pytest.raises(Exception):
        HashKVConfig(segment_bytes=0)
    with pytest.raises(Exception):
        HashKVConfig(cpu_per_hash_access_s=-1)
