"""Unit tests for measurement utilities."""

import pytest

from repro.core.metrics import (
    PercentileTracker,
    ThroughputSampler,
    mean_and_stddev,
)
from repro.errors import ConfigError


# ---------------------------------------------------------------- Percentile
def test_percentile_tracker_summary():
    tracker = PercentileTracker()
    tracker.extend(float(i) for i in range(1, 1001))
    assert tracker.mean == pytest.approx(500.5)
    assert tracker.percentile(50) == 500.0
    assert tracker.percentile(99) == 990.0
    assert tracker.percentile(99.9) == 999.0
    summary = tracker.summary()
    assert set(summary) == {"avg", "p99", "p999"}


def test_percentile_edge_cases():
    tracker = PercentileTracker()
    assert tracker.mean == 0.0
    assert tracker.percentile(99) == 0.0
    tracker.add(42.0)
    assert tracker.percentile(0) == 42.0
    assert tracker.percentile(100) == 42.0
    with pytest.raises(ConfigError):
        tracker.percentile(101)


def test_percentile_summary_sorts_once_on_large_sample():
    """Regression: ``summary()`` on 1e5 samples must sort exactly once.

    ``percentile`` used to re-sort the full sample list on every call,
    making the three-read summary O(3 n log n); the cached order makes
    repeat reads free until the next ``add``/``extend`` dirties it.
    """
    tracker = PercentileTracker()
    tracker.extend(float((i * 7919) % 100_000) for i in range(100_000))
    assert tracker.sort_count == 0
    summary = tracker.summary()
    assert tracker.sort_count == 1  # three percentile reads, one sort
    assert summary["p99"] >= summary["avg"]
    tracker.percentile(50.0)
    assert tracker.sort_count == 1  # still cached
    tracker.add(1.0)  # dirties the cache
    tracker.percentile(50.0)
    assert tracker.sort_count == 2


# ------------------------------------------------------------------- Sampler
def test_sampler_rate_series():
    sampler = ThroughputSampler(interval_s=10.0)
    counters = {"bytes": 0.0}
    sampler.prime(0.0, counters)
    counters["bytes"] = 500.0
    sampler.maybe_sample(10.0, lambda: dict(counters))
    counters["bytes"] = 1500.0
    sampler.maybe_sample(20.0, lambda: dict(counters))
    series = sampler.rate_series("bytes")
    assert series == [(0.0, 50.0), (10.0, 100.0)]


def test_sampler_catches_up_over_skipped_intervals():
    sampler = ThroughputSampler(interval_s=10.0)
    counters = {"bytes": 0.0}
    sampler.prime(0.0, counters)
    counters["bytes"] = 300.0
    # One call lands after three interval boundaries.
    sampler.maybe_sample(35.0, lambda: dict(counters))
    series = sampler.rate_series("bytes")
    assert len(series) == 3


def test_sampler_finalize_partial_interval():
    sampler = ThroughputSampler(interval_s=10.0)
    counters = {"bytes": 0.0}
    sampler.prime(0.0, counters)
    counters["bytes"] = 50.0
    sampler.finalize(5.0, counters)
    assert sampler.rate_series("bytes") == [(0.0, 10.0)]


def test_sampler_level_series():
    sampler = ThroughputSampler(interval_s=10.0)
    sampler.prime(0.0, {"disk": 10.0})
    sampler.maybe_sample(10.0, lambda: {"disk": 25.0})
    assert sampler.level_series("disk") == [(0.0, 10.0), (10.0, 25.0)]


def test_sampler_missing_counter_reads_as_zero():
    """Regression: counters absent from earlier snapshots must not
    KeyError — a counter registered mid-run has zero history."""
    sampler = ThroughputSampler(interval_s=10.0)
    sampler.prime(0.0, {"old": 100.0})
    sampler.maybe_sample(10.0, lambda: {"old": 300.0, "new": 40.0})
    sampler.maybe_sample(20.0, lambda: {"old": 500.0, "new": 90.0})
    assert sampler.rate_series("old") == [(0.0, 20.0), (10.0, 20.0)]
    # "new" appears only from the second snapshot on: first delta counts
    # from 0.0 instead of raising.
    assert sampler.rate_series("new") == [(0.0, 4.0), (10.0, 5.0)]
    # a counter nobody ever reported is all-zero rates, not an error
    assert sampler.rate_series("ghost") == [(0.0, 0.0), (10.0, 0.0)]
    assert sampler.level_series("new") == [(0.0, 0.0), (10.0, 40.0), (20.0, 90.0)]


def test_sampler_reads_from_registry():
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    box = {"bytes": 0.0}
    registry.register("qindb.n0.bytes", lambda: box["bytes"])
    sampler = ThroughputSampler(interval_s=10.0)
    sampler.prime(0.0, registry.collect())
    box["bytes"] = 500.0
    sampler.maybe_sample(10.0, registry.collect)
    assert sampler.rate_series("qindb.n0.bytes") == [(0.0, 50.0)]


# ----------------------------------------------------------------- mean/std
def test_mean_and_stddev():
    mean, std = mean_and_stddev([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    assert mean == pytest.approx(5.0)
    assert std == pytest.approx(2.0)
    assert mean_and_stddev([]) == (0.0, 0.0)
