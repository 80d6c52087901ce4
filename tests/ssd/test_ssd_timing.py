"""Unit tests for the flash timing model."""

import pytest

from repro.errors import ConfigError
from repro.ssd.timing import TimingModel


def test_single_page_costs_full_latency():
    timing = TimingModel(page_read_s=50e-6, page_write_s=200e-6)
    assert timing.read_time(1) == pytest.approx(50e-6)
    assert timing.write_time(1) == pytest.approx(200e-6)


def test_zero_pages_cost_nothing():
    timing = TimingModel()
    assert timing.read_time(0) == 0.0
    assert timing.write_time(0) == 0.0


def test_multi_page_ops_stripe_over_channels():
    timing = TimingModel(page_write_s=160e-6, channel_parallelism=16)
    # 1 + 15/16 page times, far less than 16 serial page programs.
    assert timing.write_time(16) == pytest.approx(160e-6 * (1 + 15 / 16))
    assert timing.write_time(16) < 16 * 160e-6 / 2


def test_striping_monotone_in_pages():
    timing = TimingModel()
    times = [timing.write_time(n) for n in range(1, 50)]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_erase_time_scales_with_blocks():
    timing = TimingModel(block_erase_s=2e-3)
    assert timing.erase_time() == pytest.approx(2e-3)
    assert timing.erase_time(5) == pytest.approx(10e-3)


def test_sequential_bandwidths():
    """A long sequential run approaches the channel-parallel bandwidth."""
    timing = TimingModel(page_write_s=250e-6, channel_parallelism=16)
    pages = 1_000_000
    bandwidth = 4096 * pages / timing.write_time(pages)
    assert bandwidth == pytest.approx(4096 * 16 / 250e-6, rel=1e-4)
    assert 4096 * pages / timing.read_time(pages) > bandwidth  # reads faster


def test_negative_pages_rejected():
    with pytest.raises(ConfigError):
        TimingModel().read_time(-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"page_read_s": 0},
        {"page_write_s": -1e-6},
        {"block_erase_s": 0},
        {"channel_parallelism": 0},
    ],
)
def test_invalid_timing_rejected(kwargs):
    with pytest.raises(ConfigError):
        TimingModel(**kwargs)
