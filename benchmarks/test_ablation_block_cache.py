"""Ablation A6 — compaction-induced buffer-cache invalidation.

Paper Section 2.1, justifying the LSM-tree's rejection: "frequent
compactions in LSM-tree are not affordable for SSD.  A compaction buffer
is built in LSbM-tree to minimize the LSM-tree compaction induced buffer
cache invalidations.  Since we have built a sorted data structure in
memory for fast data accesses, buffer cache is not very critical in our
system."

Measured here: an LSM with a generous block cache serves a hot read set
almost entirely from RAM — until an update burst compacts the tree and
deletes the cached files, collapsing the hit rate and sending reads back
to the device.  QinDB's read latency is untouched by the same update
burst: its "cache" (the memtable index) is the primary structure,
invalidated by nothing.
"""

import pytest

from repro.analysis.tables import render_table
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.qindb.engine import QinDB, QinDBConfig

KEYS = 150
VALUE = 1024
HOT_READS = 600


def _key(index):
    return f"cache-key-{index:05d}".encode()


def _mean_read_cost(engine, version):
    device = engine.device
    before = device.now
    for probe in range(HOT_READS):
        engine.get(_key(probe % KEYS), version)
    return (device.now - before) / HOT_READS


@pytest.fixture(scope="module")
def results():
    lsm = LSMEngine.with_capacity(
        32 * 1024 * 1024,
        config=LSMConfig(
            memtable_bytes=8 * 1024,
            level1_max_bytes=32 * 1024,
            max_file_bytes=8 * 1024,
            index_interval=2,
            block_cache_bytes=4 * 1024 * 1024,
        ),
    )
    qindb = QinDB.with_capacity(
        32 * 1024 * 1024, config=QinDBConfig(segment_bytes=1024 * 1024)
    )
    for engine in (lsm, qindb):
        for index in range(KEYS):
            engine.put(_key(index), 1, b"v" * VALUE)
        engine.flush()

    data = {}
    # Phase 1: warm, read-mostly service.
    _mean_read_cost(lsm, 1)  # populate the cache
    lsm.block_cache.reset_counters()
    data["lsm_warm_cost"] = _mean_read_cost(lsm, 1)
    data["lsm_warm_hit_rate"] = lsm.block_cache.hit_rate
    data["qindb_before_cost"] = _mean_read_cost(qindb, 1)

    # Phase 2: an update burst lands (a new index version).
    for engine in (lsm, qindb):
        for index in range(KEYS):
            engine.put(_key(index), 2, b"w" * VALUE)
        engine.flush()
    data["invalidated_blocks"] = lsm.block_cache.invalidated

    # Phase 3: the same hot reads, right after the burst.
    lsm.block_cache.reset_counters()
    data["lsm_cold_cost"] = _mean_read_cost(lsm, 1)
    data["lsm_cold_hit_rate"] = lsm.block_cache.hit_rate
    data["qindb_after_cost"] = _mean_read_cost(qindb, 1)
    return data


def test_ablation_compaction_cache_invalidation(results, benchmark):
    print("\n=== Ablation A6: compaction vs the block cache ===")
    print(
        render_table(
            ["metric", "before update burst", "after update burst"],
            [
                [
                    "LSM cache hit rate",
                    f"{results['lsm_warm_hit_rate'] * 100:.0f}%",
                    f"{results['lsm_cold_hit_rate'] * 100:.0f}%",
                ],
                [
                    "LSM mean read (us)",
                    results["lsm_warm_cost"] * 1e6,
                    results["lsm_cold_cost"] * 1e6,
                ],
                [
                    "QinDB mean read (us)",
                    results["qindb_before_cost"] * 1e6,
                    results["qindb_after_cost"] * 1e6,
                ],
            ],
        )
    )
    print(f"blocks invalidated by compactions: {results['invalidated_blocks']}")

    # The warm cache genuinely served the hot set...
    assert results["lsm_warm_hit_rate"] > 0.9
    # ...compactions genuinely invalidated it...
    assert results["invalidated_blocks"] > 0
    assert results["lsm_cold_hit_rate"] < results["lsm_warm_hit_rate"]
    # ...making post-burst reads measurably slower.
    assert results["lsm_cold_cost"] > 1.5 * results["lsm_warm_cost"]
    # QinDB's reads are indifferent to the update burst (within 25%).
    ratio = results["qindb_after_cost"] / results["qindb_before_cost"]
    assert 0.75 < ratio < 1.25

    benchmark(lambda: results["lsm_cold_cost"] / results["lsm_warm_cost"])
