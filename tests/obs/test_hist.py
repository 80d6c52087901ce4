"""Unit tests for the mergeable log-bucketed histogram."""

import math
import random

import pytest

from repro.errors import ConfigError
from repro.obs import LogHistogram


def _exact_percentile(samples, p):
    ordered = sorted(samples)
    # same nearest-rank rule (and float-edge epsilon) as the histogram
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def test_percentiles_within_one_bucket_of_exact():
    """Reported percentile is >= exact and within one bucket width."""
    rng = random.Random(42)
    samples = [rng.expovariate(1.0 / 0.005) + 1e-5 for _ in range(20_000)]
    hist = LogHistogram()
    hist.extend(samples)
    for p in (50.0, 90.0, 99.0, 99.9):
        exact = _exact_percentile(samples, p)
        reported = hist.percentile(p)
        assert exact <= reported <= exact * hist.growth


def test_mean_is_exact():
    hist = LogHistogram()
    samples = [0.001, 0.002, 0.004, 0.032]
    hist.extend(samples)
    assert hist.mean == pytest.approx(sum(samples) / len(samples))
    assert len(hist) == 4


def test_underflow_and_overflow_clamp():
    hist = LogHistogram(min_value=1e-3, max_value=10.0)
    hist.add(1e-9)   # below the floor
    hist.add(1e9)    # above the ceiling
    assert hist.percentile(0.0) == 1e-3
    assert hist.percentile(100.0) == 10.0


def test_merge_equals_union_of_samples():
    """Merging two histograms == one histogram over both sample sets."""
    rng = random.Random(7)
    left = [rng.random() * 0.01 for _ in range(3000)]
    right = [rng.random() * 0.1 for _ in range(1000)]
    a, b, union = LogHistogram(), LogHistogram(), LogHistogram()
    a.extend(left)
    b.extend(right)
    union.extend(left + right)
    merged = LogHistogram.merged([a, b])
    assert len(merged) == len(union)
    for p in (50.0, 99.0, 99.9):
        assert merged.percentile(p) == union.percentile(p)
    assert merged.mean == pytest.approx(union.mean)
    # the inputs are untouched
    assert len(a) == 3000 and len(b) == 1000


def test_merge_rejects_different_geometry():
    with pytest.raises(ConfigError):
        LogHistogram(growth=1.02).merge(LogHistogram(growth=1.05))


def test_merged_empty_iterable_is_empty_histogram():
    merged = LogHistogram.merged([])
    assert len(merged) == 0
    assert merged.percentile(99.0) == 0.0


def test_quantiles_and_summary_shapes():
    hist = LogHistogram()
    hist.extend([0.01] * 100)
    quantiles = hist.quantiles()
    assert set(quantiles) == {"mean", "p50", "p99", "p999", "count"}
    assert quantiles["count"] == 100.0
    summary = hist.summary()
    assert set(summary) == {"avg", "p99", "p999"}


def test_boundary_values_read_back_at_least_themselves():
    """The upper-bound contract holds on exact bucket boundaries."""
    hist = LogHistogram(min_value=1.0, max_value=1000.0, growth=2.0)
    for value in (1.0, 2.0, 4.0, 8.0, 3.0, 5.0):
        probe = LogHistogram(min_value=1.0, max_value=1000.0, growth=2.0)
        probe.add(value)
        assert probe.percentile(100.0) >= value


def test_bad_config_rejected():
    with pytest.raises(ConfigError):
        LogHistogram(min_value=0.0)
    with pytest.raises(ConfigError):
        LogHistogram(min_value=1.0, max_value=0.5)
    with pytest.raises(ConfigError):
        LogHistogram(growth=1.0)
    with pytest.raises(ConfigError):
        LogHistogram().percentile(101.0)
