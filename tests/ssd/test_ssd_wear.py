"""Wear-leveling behaviour of the device's FIFO free pool.

The paper cares about flash lifetime ("the cost to build an LSM-tree on
SSD is ... not suitable due to its life span based on limited write
cycles"); the simulated device recycles erased blocks through a FIFO
pool, which spreads erases round-robin.  These tests pin that property
so the write-amplification numbers can be read as lifetime numbers.
"""

import random

from repro.qindb.engine import QinDB, QinDBConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import SSDGeometry


def erase_counts(device):
    """Erases per block, across the whole device."""
    return [block.erase_count for block in device._blocks.values()]


def test_ftl_churn_spreads_erases_evenly():
    geometry = SSDGeometry(
        block_count=32, pages_per_block=8, page_size=512, op_ratio=0.2
    )
    device = SimulatedSSD(geometry)
    ftl = FlashTranslationLayer(device)
    rng = random.Random(0)
    pages = geometry.exported_pages
    for _ in range(pages * 12):
        ftl.write([rng.randrange(pages // 2)])
    counts = erase_counts(device)
    assert sum(counts) > 0
    # Round-robin recycling keeps the spread tight: no block sees more
    # than ~3x the mean wear.
    assert max(counts) <= 3 * max(1.0, sum(counts) / len(counts))


def test_qindb_segment_recycling_wears_evenly():
    engine = QinDB.with_capacity(
        8 * 1024 * 1024,
        config=QinDBConfig(
            segment_bytes=256 * 1024, gc_defer_min_free_blocks=0
        ),
    )
    for version in range(1, 16):
        for index in range(40):
            engine.put(f"k{index:03d}".encode(), version, bytes([version]) * 3000)
        if version > 2:
            for index in range(40):
                engine.delete(f"k{index:03d}".encode(), version - 2)
    counts = erase_counts(engine.device)
    assert sum(counts) > 0
    assert max(counts) <= sum(counts) / len(counts) * 3 + 2


def test_wear_totals_match_counters():
    geometry = SSDGeometry(block_count=16, pages_per_block=8, page_size=512)
    device = SimulatedSSD(geometry)
    block = device.allocate_block("x")
    for _ in range(5):
        device.program(block.block_id, 1)
        device.erase_block(block.block_id)
        block = device.allocate_block("x")
    assert sum(erase_counts(device)) == device.counters.blocks_erased
