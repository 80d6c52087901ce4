"""Unit tests for the flat filesystem over the FTL."""

import pytest

from repro.errors import DeviceFullError, OutOfRangeError, StorageError
from repro.ssd.device import SimulatedSSD
from repro.ssd.files import BlockFileSystem
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import SSDGeometry


@pytest.fixture
def fs():
    geometry = SSDGeometry(block_count=32, pages_per_block=8, page_size=512)
    return BlockFileSystem(FlashTranslationLayer(SimulatedSSD(geometry)))


def test_create_append_read_roundtrip(fs):
    file = fs.create("data")
    offset = file.append(b"hello world")
    assert offset == 0
    assert file.read(0, 11) == b"hello world"
    assert file.read_all() == b"hello world"
    assert file.size == 11


def test_append_returns_sequential_offsets(fs):
    file = fs.create("log")
    assert file.append(b"aaa") == 0
    assert file.append(b"bbbb") == 3
    assert file.read(3, 4) == b"bbbb"


def test_duplicate_name_rejected(fs):
    fs.create("x")
    with pytest.raises(StorageError):
        fs.create("x")


def test_open_missing_rejected(fs):
    with pytest.raises(StorageError):
        fs.open("ghost")


def test_exists_and_list(fs):
    fs.create("b")
    fs.create("a")
    assert fs.exists("a")
    assert not fs.exists("c")
    assert sorted(fs._files) == ["a", "b"]


def test_read_past_eof_rejected(fs):
    file = fs.create("x")
    file.append(b"12345")
    with pytest.raises(OutOfRangeError):
        file.read(3, 10)
    with pytest.raises(OutOfRangeError):
        file.read(-1, 2)


def test_delete_frees_pages_and_blocks_reuse(fs):
    file = fs.create("big")
    file.append(b"z" * 5000)
    assert file.page_count > 0
    fs.delete("big")
    assert fs.used_bytes == 0
    assert not fs.exists("big")
    with pytest.raises(StorageError):
        file.append(b"more")  # handle is dead
    with pytest.raises(StorageError):
        fs.delete("big")


def test_page_accounting_mid_page_append_rewrites(fs):
    device = fs.ftl.device
    file = fs.create("x")
    file.append(b"a" * 512)  # exactly one page
    first = device.counters.host_pages_written
    assert first == 1
    file.append(b"b" * 256)  # new page, no rewrite of page 0
    assert device.counters.host_pages_written == 2
    file.append(b"c" * 256)  # completes page 1: rewrite of page 1 only
    assert device.counters.host_pages_written == 3


def test_large_append_touches_expected_pages(fs):
    device = fs.ftl.device
    file = fs.create("x")
    file.append(b"q" * (512 * 10))
    assert device.counters.host_pages_written == 10


def test_read_charges_touched_pages(fs):
    device = fs.ftl.device
    file = fs.create("x")
    file.append(b"r" * (512 * 4))
    before = device.counters.host_pages_read
    file.read(0, 512)
    assert device.counters.host_pages_read == before + 1
    file.read(500, 100)  # spans pages 0 and 1
    assert device.counters.host_pages_read == before + 3


def test_filesystem_full_raises(fs):
    geometry = fs.ftl.device.geometry
    budget = geometry.exported_blocks * geometry.block_size
    file = fs.create("hog")
    with pytest.raises(DeviceFullError):
        # Logical space is the exported capacity; exceed it.
        for _ in range(budget // 4096 + 10):
            file.append(b"x" * 4096)


def test_deleted_space_is_reusable(fs):
    geometry = fs.ftl.device.geometry
    chunk = b"y" * (geometry.exported_blocks * geometry.block_size // 2)
    for round_index in range(6):
        file = fs.create(f"round-{round_index}")
        file.append(chunk)
        fs.delete(f"round-{round_index}")
    assert fs.used_bytes == 0


def test_empty_read_and_append(fs):
    file = fs.create("x")
    assert file.append(b"") == 0
    assert file.read(0, 0) == b""
    assert file.size == 0
