"""The memtable's CPU charge is closed-form in the table size.

``last_search_steps = len(table).bit_length() + neighbour hops``: one
binary search positions an operation, then one step per neighbour it
visits — each further item of a batch, each older version a traceback
walks.  The engine turns the steps into device time once per operation.
"""

import pytest

from repro.qindb.engine import QinDB, QinDBConfig

CONFIG = QinDBConfig(segment_bytes=1024 * 1024)


def engine_with(count: int) -> QinDB:
    engine = QinDB.with_capacity(32 * 1024 * 1024, config=CONFIG)
    engine.put_batch([(b"fill-%04d" % i, 1, b"v") for i in range(count)])
    return engine


def test_put_and_put_batch():
    engine = engine_with(100)
    assert engine.memtable.last_search_steps == (100).bit_length() + 99
    engine.put(b"one-more", 1, b"v")
    assert engine.memtable.last_search_steps == (101).bit_length()
    engine.put_batch([(b"one-more-too", 1, b"w")])  # batch of one == put
    assert engine.memtable.last_search_steps == (102).bit_length()
    engine.put_batch([(b"b-%02d" % i, 1, b"v") for i in range(27)])
    assert engine.memtable.last_search_steps == (129).bit_length() + 26


def test_get_and_traceback_hops():
    engine = engine_with(50)
    engine.put(b"k", 1, b"base")
    for version in (2, 3, 4):
        engine.put(b"k", version, None)  # deduplicated upstream
    search = (54).bit_length()
    assert engine.get(b"k", 1) == b"base"
    assert engine.memtable.last_search_steps == search
    assert engine.get(b"k", 2) == b"base"
    assert engine.memtable.last_search_steps == search + 1
    assert engine.get(b"k", 4) == b"base"  # walks v3, v2, v1
    assert engine.memtable.last_search_steps == search + 3
    engine.memtable.resolve_batch([(b"k", 3)])
    assert engine.memtable.last_search_steps == search + 2
    engine.memtable.resolve_batch([(b"absent", 1)])
    assert engine.memtable.last_search_steps == search


def test_get_batch_and_delete_batch():
    engine = engine_with(50)
    engine.put(b"k", 1, b"base")
    engine.put(b"k", 2, None)
    engine.put(b"k", 3, None)
    search = (53).bit_length()
    batch = [(b"fill-0001", 1), (b"k", 3), (b"k", 3), (b"missing", 9)]
    assert engine.get_batch(batch) == [b"v", b"base", b"base", None]
    # one search, three further items, two tracebacks of two hops each
    assert engine.memtable.last_search_steps == search + 3 + 4
    engine.delete_batch([(b"fill-0002", 1), (b"fill-0003", 1), (b"k", 3)])
    assert engine.memtable.last_search_steps == search + 2


def test_engine_charges_the_steps_once_per_operation():
    engine = engine_with(200)
    config = engine.config
    before = engine.device.now
    # Absent keys: no device read, so the clock moves by the CPU charge.
    assert engine.get_batch([(b"absent", 1)] * 8) == [None] * 8
    steps = (200).bit_length() + 7
    assert engine.memtable.last_search_steps == steps
    assert engine.device.now - before == pytest.approx(
        config.cpu_per_op_s + steps * config.cpu_per_step_s, rel=1e-9
    )


def test_charge_depends_on_size_not_on_insertion_order():
    ascending = [(b"key-%03d" % i, 1, b"v") for i in range(64)]
    forward, backward = (
        QinDB.with_capacity(32 * 1024 * 1024, config=CONFIG) for _ in range(2)
    )
    for item in ascending:
        forward.put(*item)
    for item in reversed(ascending):
        backward.put(*item)
    for engine in (forward, backward):
        engine.get(b"key-031", 1)
    assert (
        forward.memtable.last_search_steps
        == backward.memtable.last_search_steps
        == (64).bit_length()
    )
    assert forward.device.now == pytest.approx(backward.device.now, rel=1e-9)


@pytest.mark.parametrize("size", [200, 3000, 16 * 1024])
def test_put_is_charged_as_a_batch_of_one(size):
    """``put`` is ``put_batch`` of one item, to the device as well: a
    frame spanning several pages programs as one striped command per
    block (the per-key body this replaced programmed page by page — 801
    commands for 200 puts of 16 KB where this path takes 206)."""
    single, batched = (
        QinDB.with_capacity(32 * 1024 * 1024, config=CONFIG) for _ in range(2)
    )
    for index in range(20):
        item = (b"key-%03d" % index, 1, bytes([index]) * size)
        single.put(*item)
        batched.put_batch([item])
    assert single.device.now == batched.device.now
    counters = single.device.counters
    assert counters.host_write_ops == batched.device.counters.host_write_ops
    if size > 2 * single.device.geometry.page_size:
        assert counters.host_write_ops < counters.host_pages_written
