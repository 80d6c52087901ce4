"""Unit tests for level metadata."""

import pytest

from repro.errors import StorageError
from repro.lsm.levels import LevelState
from repro.lsm.sstable import SSTable
from repro.qindb.records import Record, RecordType
from repro.ssd.device import SimulatedSSD
from repro.ssd.files import BlockFileSystem
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import SSDGeometry


@pytest.fixture
def fs():
    geometry = SSDGeometry(block_count=64, pages_per_block=8, page_size=512)
    return BlockFileSystem(FlashTranslationLayer(SimulatedSSD(geometry)))


def make_table(fs, name, lo, hi, sequence):
    records = [
        Record(RecordType.PUT_VALUE, f"key-{i:04d}".encode(), 1, b"v")
        for i in range(lo, hi)
    ]
    return SSTable.write(fs, name, records, sequence=sequence)


def test_l0_orders_newest_first(fs):
    levels = LevelState()
    old = make_table(fs, "a", 0, 10, sequence=1)
    new = make_table(fs, "b", 0, 10, sequence=2)
    levels.add(0, old)
    levels.add(0, new)
    assert [t.sequence for t in levels.level(0)] == [2, 1]


def test_l1_keeps_key_order_and_rejects_overlap(fs):
    levels = LevelState()
    levels.add(1, make_table(fs, "b", 10, 20, sequence=1))
    levels.add(1, make_table(fs, "a", 0, 10, sequence=2))
    assert [t.name for t in levels.level(1)] == ["a", "b"]
    with pytest.raises(StorageError, match="overlap"):
        levels.add(1, make_table(fs, "c", 5, 15, sequence=3))


def test_candidate_finds_covering_file(fs):
    levels = LevelState()
    levels.add(1, make_table(fs, "a", 0, 10, sequence=1))
    levels.add(1, make_table(fs, "b", 20, 30, sequence=2))
    assert levels.candidate(1, (b"key-0005", 1)).name == "a"
    assert levels.candidate(1, (b"key-0025", 1)).name == "b"
    assert levels.candidate(1, (b"key-0015", 1)) is None  # gap
    assert levels.candidate(1, (b"key-9999", 1)) is None
    assert levels.candidate(2, (b"key-0005", 1)) is None  # empty level


def test_overlapping_selection(fs):
    levels = LevelState()
    levels.add(1, make_table(fs, "a", 0, 10, sequence=1))
    levels.add(1, make_table(fs, "b", 10, 20, sequence=2))
    levels.add(1, make_table(fs, "c", 30, 40, sequence=3))
    hits = levels.overlapping(1, (b"key-0005", 0), (b"key-0012", 9))
    assert [t.name for t in hits] == ["a", "b"]


def test_remove(fs):
    levels = LevelState()
    table = make_table(fs, "a", 0, 10, sequence=1)
    levels.add(1, table)
    levels.remove(1, [table])
    assert levels.level(1) == []


def test_byte_and_file_accounting(fs):
    levels = LevelState()
    a = make_table(fs, "a", 0, 10, sequence=1)
    b = make_table(fs, "b", 10, 30, sequence=2)
    levels.add(1, a)
    levels.add(2, b)
    assert levels.level_bytes(1) == a.size
    assert levels.level_bytes(2) == b.size
    assert levels.total_files() == 2
    assert levels.file_count(1) == 1
    assert levels.deepest_nonempty() == 2


def test_deepest_nonempty_when_empty():
    assert LevelState().deepest_nonempty() == -1


def test_validation():
    with pytest.raises(StorageError):
        LevelState(max_levels=1)
