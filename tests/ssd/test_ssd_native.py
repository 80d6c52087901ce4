"""Unit tests for the native (block-aligned) interface."""

import pytest

from repro.errors import DeviceFullError, OutOfRangeError, StorageError
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry
from repro.ssd.native import NativeBlockInterface


@pytest.fixture
def native():
    geometry = SSDGeometry(block_count=16, pages_per_block=8, page_size=512)
    return NativeBlockInterface(SimulatedSSD(geometry))


def test_append_and_read_roundtrip(native):
    unit = native.open_unit("aof")
    offset = unit.append(b"hello")
    assert offset == 0
    assert unit.read(0, 5) == b"hello"
    blob = b"hello" + bytes(range(256)) * 6  # three pages and a tail
    unit.append(blob[5:])
    assert unit.read(0, len(blob)) == blob  # programmed pages + buffer
    assert unit.read(700, 500) == blob[700:1200]
    assert unit.read(1538, 3) == blob[1538:]


def test_partial_page_stays_buffered_until_flush(native):
    device = native.device
    unit = native.open_unit("aof")
    unit.append(b"x" * 100)
    assert device.counters.host_pages_written == 0  # still buffered
    unit.flush()
    assert device.counters.host_pages_written == 1
    assert unit.size == 512  # the page, padded


def test_full_pages_program_as_they_fill(native):
    device = native.device
    unit = native.open_unit("aof")
    unit.append(b"x" * (512 * 3 + 10))
    assert device.counters.host_pages_written == 3
    unit.discard_unprogrammed()  # the 10 buffered bytes never hit flash
    assert unit.size == 512 * 3
    assert device.counters.host_pages_written == 3


def test_flush_padding_shifts_next_append_to_page_boundary(native):
    unit = native.open_unit("aof")
    unit.append(b"abc")
    unit.flush()
    offset = unit.append(b"def")
    assert offset == 512  # after the padded page
    assert unit.read(512, 3) == b"def"
    assert unit.read(0, 3) == b"abc"


def test_blocks_allocated_on_demand(native):
    unit = native.open_unit("aof")
    assert unit.occupied_bytes == 0
    unit.append(b"z" * 512)
    assert unit.occupied_bytes == 512 * 8
    unit.append(b"z" * 512 * 8)  # spills into a second block
    assert unit.occupied_bytes == 2 * 512 * 8


def test_reads_of_buffered_bytes_cost_no_flash_reads(native):
    device = native.device
    unit = native.open_unit("aof")
    unit.append(b"q" * 100)
    before = device.counters.host_pages_read
    assert unit.read(0, 50) == b"q" * 50
    assert device.counters.host_pages_read == before


def test_read_bounds_checked(native):
    unit = native.open_unit("aof")
    unit.append(b"abc")
    with pytest.raises(OutOfRangeError):
        unit.read(0, 10)
    with pytest.raises(OutOfRangeError):
        unit.read(-1, 1)


def test_erase_returns_blocks_and_kills_unit(native):
    device = native.device
    unit = native.open_unit("aof")
    unit.append(b"x" * 512 * 10)
    assert device.free_block_count < device.geometry.block_count
    unit.erase()
    assert device.free_block_count == device.geometry.block_count
    with pytest.raises(StorageError):
        unit.append(b"more")
    with pytest.raises(StorageError):
        unit.read(0, 1)


def test_native_path_has_unit_write_amplification(native):
    device = native.device
    unit = native.open_unit("aof")
    unit.append(b"v" * 512 * 30)
    unit.flush()
    assert device.counters.gc_pages_written == 0
    assert device.counters.hardware_write_amplification == 1.0


def test_device_exhaustion_raises(native):
    unit = native.open_unit("hog")
    geometry = native.device.geometry
    capacity = geometry.block_count * geometry.block_size
    with pytest.raises(DeviceFullError):
        unit.append(b"x" * (capacity + 512 * 8))


def test_unit_tags_are_unique_by_default(native):
    first = native.open_unit()
    second = native.open_unit()
    assert first.tag != second.tag


def _fresh_unit():
    geometry = SSDGeometry(block_count=16, pages_per_block=8, page_size=512)
    native = NativeBlockInterface(SimulatedSSD(geometry))
    return native.device, native.open_unit("aof")


def test_append_many_matches_sequential_appends():
    chunks = [bytes([i % 251]) * (100 + 37 * i) for i in range(20)]
    seq_device, seq_unit = _fresh_unit()
    many_device, many_unit = _fresh_unit()
    seq_offsets = [seq_unit.append(chunk) for chunk in chunks]
    assert many_unit.append_many(chunks) == seq_offsets[0]
    assert many_unit.size == seq_unit.size
    for offset, chunk in zip(seq_offsets, chunks):
        assert many_unit.read(offset, len(chunk)) == chunk
    # Identical pages reach the flash; fewer program commands issue them.
    assert (
        many_device.counters.host_pages_written
        == seq_device.counters.host_pages_written
    )
    assert many_device.counters.host_write_ops < seq_device.counters.host_write_ops
    assert many_device.now < seq_device.now


def test_append_many_spills_across_blocks():
    device, unit = _fresh_unit()
    pages_per_block = device.geometry.pages_per_block
    chunk = b"q" * 512 * (pages_per_block + 3)  # more than one block's pages
    assert unit.append_many([chunk]) == 0
    assert unit.read(0, len(chunk)) == chunk
    assert device.counters.host_pages_written == pages_per_block + 3
    # One program per block touched, not per page.
    assert device.counters.host_write_ops == 2


def test_corrupt_flips_stored_bits_without_device_time(native):
    unit = native.open_unit("aof")
    unit.append(b"a" * 512 + b"bc")  # one programmed page, two buffered
    now = native.device.now
    unit.corrupt(3, 0x01)
    unit.corrupt(513, 0x20)  # still in the fill buffer
    assert native.device.now == now
    assert unit.read(0, 514) == b"aaa" + b"`" + b"a" * 508 + b"b" + b"C"
    for offset, mask in ((-1, 1), (514, 1), (0, 0), (0, 256)):
        with pytest.raises((OutOfRangeError, StorageError)):
            unit.corrupt(offset, mask)

