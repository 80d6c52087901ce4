"""Unit tests for AOF segments and the manager."""

import pytest

from repro.errors import StorageError
from repro.qindb.aof import AofManager, RecordLocation
from repro.qindb.records import (
    HEAD_SIZE,
    Frames,
    Record,
    RecordType,
    decode_record,
    encode_record,
)
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry


class RecordAofs(AofManager):
    """One ``Record`` in, one ``Record`` out, spelled through the
    manager's frame API (a batch of one; a positioned unit read)."""

    def append(self, record: Record) -> RecordLocation:
        frame = encode_record(record)
        (run,) = self.append_frames(
            Frames.of([frame[:HEAD_SIZE]], [frame[HEAD_SIZE:]])
        )
        return (run.segment_id, run.offset, run.nbytes)

    def read(self, location: RecordLocation) -> Record:
        segment_id, offset, length = location
        unit = self.segment(segment_id)._unit
        return decode_record(unit.read(offset, length))[0]


@pytest.fixture
def manager():
    geometry = SSDGeometry(block_count=64, pages_per_block=8, page_size=512)
    return RecordAofs(SimulatedSSD(geometry), segment_bytes=3 * 512 * 8)


def rec(key: bytes, version: int = 1, size: int = 100) -> Record:
    return Record(RecordType.PUT_VALUE, key, version, b"v" * size)


def test_segment_smaller_than_block_rejected():
    geometry = SSDGeometry(block_count=16, pages_per_block=8, page_size=512)
    with pytest.raises(StorageError):
        AofManager(SimulatedSSD(geometry), segment_bytes=100)


def test_append_read_roundtrip(manager):
    record = rec(b"key-1")
    location = manager.append(record)
    assert type(location) is tuple  # exact: the collector can untrack it
    assert location[0] == 0  # segment_id
    assert manager.read(location) == record


def test_locations_are_monotone_within_segment(manager):
    first_segment, first_offset, _ = manager.append(rec(b"a"))
    second_segment, second_offset, _ = manager.append(rec(b"b"))
    assert second_segment == first_segment
    assert second_offset > first_offset


def test_rollover_to_new_segment(manager):
    # Fill past one segment's capacity (3 blocks of 4 KB).
    locations = [manager.append(rec(f"k{i}".encode(), size=1000)) for i in range(20)]
    segment_ids = {segment_id for segment_id, _o, _l in locations}
    assert len(segment_ids) > 1
    assert manager.segment_count == len(segment_ids)
    # Every record still readable after rollover.
    for index, location in enumerate(locations):
        assert manager.read(location).key == f"k{index}".encode()


def test_bytes_appended_accounting(manager):
    before = manager.bytes_appended
    _segment_id, _offset, length = manager.append(rec(b"x", size=250))
    assert manager.bytes_appended - before == length


def test_drop_segment_frees_blocks(manager):
    device = manager.device
    for i in range(20):
        manager.append(rec(f"k{i}".encode(), size=1000))
    free_before = device.free_block_count
    victim = manager.segments[0].segment_id
    assert victim != manager.active_segment_id
    manager.drop_segment(victim)
    assert device.free_block_count > free_before
    with pytest.raises(StorageError):
        manager.segment(victim)


def walked_keys(manager):
    """Keys in frame-walk order across segments in id (= append) order."""
    return [
        frame[3]
        for segment in manager.segments
        for frame in segment.read_frames()[0]
    ]


def test_scan_all_visits_in_order(manager):
    keys = [f"k{i:03d}".encode() for i in range(20)]
    for key in keys:
        manager.append(rec(key, size=800))
    assert manager.segment_count > 1
    assert walked_keys(manager) == keys


def test_read_frames_returns_verbatim_frames(manager):
    records = [rec(f"k{i}".encode(), version=i, size=300) for i in range(6)]
    locations = [manager.append(record) for record in records]
    segment = manager.segment(0)
    frames, heads, bodies, torn = segment.read_frames()
    assert torn == 0 and len(frames) == len(heads) == len(bodies)
    for record, location, frame, head, body in zip(
        records, locations, frames, heads, bodies
    ):
        offset, end, rtype, key, version, sequence = frame
        assert (offset, end - offset) == location[1:]
        assert (rtype, key, version, sequence) == (
            record.type, record.key, record.version, record.sequence
        )
        assert head + body == encode_record(record)


def test_scan_handles_page_padding_from_flush(manager):
    manager.append(rec(b"first", size=100))
    manager.flush()  # pads the partial page
    manager.append(rec(b"second", size=100))
    assert walked_keys(manager) == [b"first", b"second"]


def test_read_from_wrong_segment_rejected(manager):
    _segment_id, offset, length = manager.append(rec(b"a"))
    bogus = (99, offset, length)
    with pytest.raises(StorageError):
        manager.read(bogus)


def test_read_values_order_and_device_charge():
    """Values come back in input order across segments, and the device is
    charged what the parent's ``read_many`` charged: per segment in id
    order, one ``unit.read_many`` — also for a single location, which
    takes the same ``read_values`` path as a batch."""
    twins = []
    for _ in range(2):
        geometry = SSDGeometry(block_count=64, pages_per_block=8, page_size=512)
        manager = RecordAofs(SimulatedSSD(geometry), segment_bytes=3 * 512 * 8)
        locations = [
            manager.append(rec(f"k{i}".encode(), size=40 + 97 * (i % 9)))
            for i in range(40)
        ]
        twins.append((manager, locations))
    (new, locations), (old, _same) = twins
    assert len({segment_id for segment_id, _o, _l in locations}) > 1
    picks = [[7], [39], [3, 4, 5], [30, 2, 17, 2, 38, 16], list(range(40))]
    for pick in picks:
        wanted = [locations[index] for index in pick]
        assert new.read_values(wanted) == [
            b"v" * (40 + 97 * (index % 9)) for index in pick
        ]
        for segment_id in sorted({loc[0] for loc in wanted}):
            old.segment(segment_id)._unit.read_many(
                [
                    (offset, length)
                    for owner, offset, length in wanted
                    if owner == segment_id
                ]
            )
        assert new.device.now == old.device.now
        assert (
            new.device.counters.host_pages_read
            == old.device.counters.host_pages_read
        )
    assert new.read_values([]) == []


def test_value_reads_from_wrong_segment_rejected(manager):
    segment_id, offset, length = manager.append(rec(b"a"))
    other = manager.append(rec(b"b"))
    bogus = (99, offset, length)
    with pytest.raises(StorageError):
        manager.read_values([bogus])
    segment = manager.segment(segment_id)
    with pytest.raises(StorageError):
        segment.read_values([bogus])
    with pytest.raises(StorageError):
        segment.read_values([other, bogus])


def test_disk_used_is_block_granular(manager):
    manager.append(rec(b"tiny", size=10))
    assert manager.disk_used_bytes == 0  # still in the page-fill buffer
    manager.flush()
    # One whole block is held even for a tiny record once programmed.
    assert manager.disk_used_bytes == manager.device.geometry.block_size
