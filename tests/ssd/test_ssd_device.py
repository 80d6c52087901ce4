"""Unit tests for the device: block pool, counters, clock."""

import pytest

from repro.errors import DeviceFullError, OutOfRangeError
from repro.obs import MetricsRegistry
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry


def test_fresh_device_all_blocks_free(device):
    assert device.free_block_count == device.geometry.block_count
    assert device.now == 0.0


def test_allocate_program_read_erase_cycle(device):
    block = device.allocate_block("test")
    assert block.owner == "test"
    first = device.program(block.block_id, 4, source="host")
    assert first == 0
    assert block.write_ptr == 4
    device.read(block.block_id, 2, source="host")
    device.erase_block(block.block_id)
    assert block.owner is None
    assert block.erase_count == 1
    assert device.free_block_count == device.geometry.block_count


def test_counters_track_host_and_gc_separately(device):
    block = device.allocate_block("x")
    device.program(block.block_id, 3, source="host")
    device.program(block.block_id, 2, source="gc")
    device.read(block.block_id, 5, source="gc")
    counters = device.counters
    assert counters.host_pages_written == 3
    assert counters.gc_pages_written == 2
    assert counters.gc_pages_read == 5
    assert counters.total_pages_written == 5
    assert counters.hardware_write_amplification == pytest.approx(5 / 3)


def test_unknown_source_rejected(device):
    block = device.allocate_block("x")
    with pytest.raises(OutOfRangeError):
        device.program(block.block_id, 1, source="mystery")


def test_block_overflow_rejected(device):
    block = device.allocate_block("x")
    per_block = device.geometry.pages_per_block
    device.program(block.block_id, per_block)
    with pytest.raises(OutOfRangeError):
        device.program(block.block_id, 1)


def test_program_free_block_rejected(device):
    with pytest.raises(OutOfRangeError):
        device.program(0, 1)


def test_read_free_block_rejected(device):
    with pytest.raises(OutOfRangeError):
        device.read(0, 1)


def test_erase_free_block_rejected(device):
    with pytest.raises(OutOfRangeError):
        device.erase_block(0)


def test_exhausting_pool_raises(device):
    for _ in range(device.geometry.block_count):
        device.allocate_block("hog")
    with pytest.raises(DeviceFullError):
        device.allocate_block("one-more")


def test_free_pool_is_fifo_round_robin_wear(device):
    first = device.allocate_block("a")
    device.erase_block(first.block_id)
    # After erasing, the block goes to the back of the queue: the next
    # allocation must be a different block.
    second = device.allocate_block("b")
    assert second.block_id != first.block_id


def test_clock_advances_with_operations(device):
    t0 = device.now
    block = device.allocate_block("x")
    device.program(block.block_id, 8)
    t1 = device.now
    assert t1 > t0
    device.read(block.block_id, 8)
    t2 = device.now
    assert t2 > t1
    device.erase_block(block.block_id)
    assert device.now >= t2 + device.timing.block_erase_s


def test_advance_charges_think_time(device):
    device.advance(1.5)
    assert device.now == 1.5
    with pytest.raises(OutOfRangeError):
        device.advance(-0.1)


def test_wear_summary(device):
    block = device.allocate_block("x")
    device.program(block.block_id, 1)
    device.erase_block(block.block_id)
    counts = [b.erase_count for b in device._blocks.values()]
    assert sum(counts) == 1
    assert max(counts) == 1
    assert min(counts) == 0


def test_counters_snapshot_and_delta(device):
    """Device traffic between two instants is a registry snapshot delta."""
    registry = MetricsRegistry()
    registry.register(
        "ssd.host_pages_written", lambda: device.counters.host_pages_written
    )
    block = device.allocate_block("x")
    device.program(block.block_id, 3)
    before = registry.snapshot()
    device.program(block.block_id, 5)
    delta = registry.snapshot().delta(before)
    assert delta["ssd.host_pages_written"] == 5
    assert before.values["ssd.host_pages_written"] == 3  # snapshot unaffected
