"""Unit tests for the GC occupancy table."""

import pytest

from repro.errors import StorageError
from repro.qindb.gctable import GCTable


def test_threshold_validation():
    with pytest.raises(StorageError):
        GCTable(threshold=0.0)
    with pytest.raises(StorageError):
        GCTable(threshold=1.0)


def test_fresh_segment_occupancy_is_one():
    table = GCTable()
    entry = table.entry(5)
    assert entry.occupancy == 1.0
    assert entry.live_bytes == 0


def test_occupancy_math():
    table = GCTable()
    table.record_appended(1, 1000)
    table.record_dead(1, 250)
    assert table.entry(1).occupancy == pytest.approx(0.75)
    assert table.entry(1).live_bytes == 750


def test_dead_beyond_total_is_corruption():
    table = GCTable()
    table.record_appended(1, 100)
    with pytest.raises(StorageError):
        table.record_dead(1, 200)


def test_victims_at_threshold_ordered_worst_first():
    table = GCTable(threshold=0.25)
    table.record_appended(1, 1000)
    table.record_dead(1, 800)  # occupancy 0.2
    table.record_appended(2, 1000)
    table.record_dead(2, 900)  # occupancy 0.1
    table.record_appended(3, 1000)
    table.record_dead(3, 100)  # occupancy 0.9 — not a victim
    assert table.victims() == [2, 1]


def test_victims_exact_threshold_included():
    table = GCTable(threshold=0.25)
    table.record_appended(1, 1000)
    table.record_dead(1, 750)  # exactly 0.25
    assert table.victims() == [1]


def test_victims_respect_exclusion():
    table = GCTable(threshold=0.5)
    table.record_appended(1, 100)
    table.record_dead(1, 90)
    assert table.victims(exclude={1}) == []


def test_forget_clears_row():
    table = GCTable()
    table.record_appended(1, 100)
    table.record_dead(1, 100)
    table.forget(1)
    assert 1 not in table._segments
    assert table.victims() == []
    table.forget(1)  # idempotent


def test_snapshot():
    table = GCTable()
    table.record_appended(1, 100)
    table.record_appended(2, 200)
    table.record_dead(2, 100)
    assert table.snapshot() == {1: 1.0, 2: 0.5}
