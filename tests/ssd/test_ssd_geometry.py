"""Unit tests for SSD geometry."""

import pytest

from repro.errors import ConfigError
from repro.ssd.geometry import SSDGeometry


def test_defaults_match_paper_figure3():
    geometry = SSDGeometry(block_count=64)
    assert geometry.page_size == 4 * 1024
    assert geometry.pages_per_block == 64
    assert geometry.block_size == 256 * 1024


def test_capacity_arithmetic():
    geometry = SSDGeometry(block_count=100)
    assert geometry.exported_blocks == 100 - geometry.reserved_blocks
    assert geometry.exported_pages == geometry.exported_blocks * 64


def test_over_provisioning_reserve():
    geometry = SSDGeometry(block_count=100, op_ratio=0.1)
    assert geometry.reserved_blocks == 10
    small = SSDGeometry(block_count=10, op_ratio=0.07)
    assert small.reserved_blocks >= 2  # floor of 2 reserved blocks


def test_from_capacity_rounds_to_blocks():
    geometry = SSDGeometry.from_capacity(16 * 1024 * 1024)
    assert geometry.block_count * geometry.block_size == 16 * 1024 * 1024
    assert geometry.block_count == 64


@pytest.mark.parametrize(
    "kwargs",
    [
        {"block_count": 2},
        {"block_count": 16, "page_size": 128},
        {"block_count": 16, "pages_per_block": 1},
        {"block_count": 16, "op_ratio": 0.0},
        {"block_count": 16, "op_ratio": 0.6},
    ],
)
def test_invalid_geometry_rejected(kwargs):
    with pytest.raises(ConfigError):
        SSDGeometry(**kwargs)
