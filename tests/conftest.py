"""Shared fixtures: small devices and engines sized for fast tests."""

from __future__ import annotations

import pytest

from repro.lsm.engine import LSMConfig, LSMEngine
from repro.qindb.engine import QinDB, QinDBConfig
from repro.simulation.kernel import Simulator
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry

#: 16 MB device: 4 KB pages, 64-page blocks, 64 blocks
SMALL_CAPACITY = 16 * 1024 * 1024


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def geometry() -> SSDGeometry:
    return SSDGeometry.from_capacity(SMALL_CAPACITY)


@pytest.fixture
def device(geometry: SSDGeometry) -> SimulatedSSD:
    return SimulatedSSD(geometry)


@pytest.fixture
def qindb() -> QinDB:
    """A QinDB with small segments so GC paths trigger quickly."""
    return QinDB.with_capacity(
        SMALL_CAPACITY, config=QinDBConfig(segment_bytes=256 * 1024)
    )


@pytest.fixture
def lsm() -> LSMEngine:
    """An LSM engine scaled down so flush/compaction trigger quickly."""
    return LSMEngine.with_capacity(
        SMALL_CAPACITY,
        config=LSMConfig(
            memtable_bytes=16 * 1024,
            level1_max_bytes=64 * 1024,
            max_file_bytes=16 * 1024,
        ),
    )


@pytest.fixture
def corrupt_frame():
    """``corrupt_frame(node, key, version=1)``: flip the last stored byte
    of that record's frame on ``node`` — media damage its CRC catches."""

    def flip(node, key: bytes, version: int = 1) -> None:
        location, _r, _d, _sequence = node.engine.memtable.get(key, version)
        segment_id, offset, length = location
        node.engine.aofs.segment(segment_id)._unit.corrupt(
            offset + length - 1, 1
        )

    return flip
