"""Batch/single equivalence for the read path: ``get_batch`` must
return exactly what the same pairs through sequential ``get`` calls
would, with a missing/deleted key reading as ``None`` instead of
raising.  Only device-command counts and the clock may differ — the
batch path dedupes hot keys into single positioned reads and amortizes
per-operation CPU, but the bytes are the bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import KeyNotFoundError, StorageError
from repro.qindb.checkpoint import crash
from repro.qindb.engine import QinDB, QinDBConfig

DEVICE_BYTES = 64 * 1024 * 1024


def make_engine(**overrides) -> QinDB:
    config = QinDBConfig(
        segment_bytes=overrides.pop("segment_bytes", 1024 * 1024), **overrides
    )
    return QinDB.with_capacity(DEVICE_BYTES, config=config)


def seeded_engine():
    """An engine with values, dedup chains, deletes, and tombstones."""
    engine = make_engine()
    rng = random.Random(11)
    for index in range(64):
        key = f"key-{index:03d}".encode()
        engine.put(key, 1, bytes([rng.randrange(256)]) * rng.randrange(64, 512))
    for index in range(0, 64, 3):
        engine.put(f"key-{index:03d}".encode(), 2, None)  # dedup -> v1
    for index in range(0, 64, 7):
        engine.delete(f"key-{index:03d}".encode(), 1)
    for index in range(0, 64, 5):
        engine.put(f"old-{index:03d}".encode(), 3, b"tombstoned")
        engine.put(f"key-{index:03d}".encode(), 3, None)
    return engine


def reference_gets(engine, items):
    values = []
    for key, version in items:
        try:
            values.append(engine.get(key, version))
        except KeyNotFoundError:
            values.append(None)
    return values


def query_items():
    rng = random.Random(23)
    items = []
    for _ in range(300):
        index = rng.randrange(70)  # includes absent keys past 63
        version = rng.randrange(1, 4)
        items.append((f"key-{index:03d}".encode(), version))
    return items


def test_get_batch_matches_sequential_gets():
    items = query_items()
    expected = reference_gets(seeded_engine(), items)
    got = seeded_engine().get_batch(items)
    assert got == expected
    # the workload above genuinely exercises every outcome
    assert any(value is None for value in expected)
    assert any(value is not None for value in expected)


def test_get_batch_counts_user_bytes_identically():
    items = query_items()
    single = seeded_engine()
    reference_gets(single, items)
    batched = seeded_engine()
    batched.get_batch(items)
    assert (
        batched.stats().user_bytes_read == single.stats().user_bytes_read
    )


def test_get_batch_dedupes_hot_locations():
    """Many reads of one key cost (at most) one positioned device read."""
    engine = make_engine()
    engine.put(b"hot", 1, b"x" * 4096)
    engine.get(b"hot", 1)  # warm nothing; establish single-read cost
    single_cost = engine.device.now

    batch_engine = make_engine()
    batch_engine.put(b"hot", 1, b"x" * 4096)
    before = batch_engine.device.now
    values = batch_engine.get_batch([(b"hot", 1)] * 100)
    batch_cost = batch_engine.device.now - before
    assert values == [b"x" * 4096] * 100
    assert batch_cost < 2 * single_cost


def test_get_batch_resolves_dedup_chains():
    engine = make_engine()
    engine.put(b"k", 1, b"origin")
    engine.put(b"k", 2, None)
    engine.put(b"k", 3, None)
    assert engine.get_batch([(b"k", 3), (b"k", 2), (b"k", 1)]) == [
        b"origin",
        b"origin",
        b"origin",
    ]


def test_get_batch_counters_and_stats():
    engine = seeded_engine()
    items = query_items()
    engine.get_batch(items)
    engine.get_batch(items[:10])
    stats = engine.stats()
    assert stats.get_batches == 2
    assert stats.batched_gets == len(items) + 10
    assert engine.reads_in_flight == 0


def test_get_batch_empty_and_closed():
    engine = make_engine()
    assert engine.get_batch([]) == []
    crash(engine)  # a crashed engine is closed
    with pytest.raises(StorageError):
        engine.get_batch([(b"k", 1)])


def test_get_batch_with_read_cache():
    """A cached location serves from RAM; the value is still right."""
    engine = make_engine(read_cache_bytes=1024 * 1024)
    engine.put(b"a", 1, b"alpha")
    engine.put(b"b", 1, b"beta")
    first = engine.get_batch([(b"a", 1), (b"b", 1)])
    hits_before = engine.read_cache.counters.hits
    second = engine.get_batch([(b"a", 1), (b"b", 1), (b"a", 1)])
    assert first == [b"alpha", b"beta"]
    assert second == [b"alpha", b"beta", b"alpha"]
    assert engine.read_cache.counters.hits > hits_before


def test_no_product_read_builds_a_record(monkeypatch):
    """get, get_batch, peek, chain_base and scan all verify frames with
    ``decode_value``; none of them constructs a ``Record``."""
    from repro.qindb.records import Record

    engine = seeded_engine()
    expected = reference_gets(seeded_engine(), query_items())
    built = []
    monkeypatch.setattr(Record, "__post_init__", lambda self: built.append(self))
    assert engine.get_batch(query_items()) == expected
    assert reference_gets(engine, query_items()) == expected
    assert engine.peek(b"key-001", 1)[1] is False
    assert engine.chain_base(b"key-003", 2)[0] == 1
    assert len(list(engine.scan(b"key-000", b"key-999"))) > 64
    assert built == []
