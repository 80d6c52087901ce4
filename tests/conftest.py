"""Shared fixtures: small devices and engines sized for fast tests.

Every ``repro`` module (but ``repro.__main__``, which runs the CLI) and
every ``bench`` harness module is imported here, before any test runs.
Hypothesis mixes into its draws the integer constants of each local,
non-test module in ``sys.modules``, so a module first imported by an
earlier test would change the examples a derandomized run draws, and a
count over them would depend on which tests ran first.  The session
fails if a local module is still first imported later.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import bench
import repro
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.qindb.engine import QinDB, QinDBConfig
from repro.simulation.kernel import Simulator
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry

#: 16 MB device: 4 KB pages, 64-page blocks, 64 blocks
SMALL_CAPACITY = 16 * 1024 * 1024


_REPO = Path(__file__).resolve().parent.parent


def _local_modules():
    """Names of the loaded modules of this repository whose constants
    Hypothesis draws from: its rule for a local, non-test file."""
    local = set()
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)
        if path is None:
            continue
        path = Path(path).resolve()
        if (
            path.is_relative_to(_REPO)
            and not {"test", "tests", "site-packages"} & set(path.parts)
            and not path.stem.startswith("test_")
            and not path.stem.endswith("_test")
        ):
            local.add(name)
    return local


for _package in (repro, bench):
    for _info in pkgutil.walk_packages(
        _package.__path__, prefix=_package.__name__ + "."
    ):
        if _info.name != "repro.__main__" and ".test_" not in _info.name:
            importlib.import_module(_info.name)
_PRELOADED = _local_modules()


def pytest_sessionfinish(session):
    late = sorted(_local_modules() - _PRELOADED)
    if late:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        reporter.write_line(
            "\nlocal modules first imported after the conftest preload "
            f"(import them there): {', '.join(late)}",
            red=True,
        )
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


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
