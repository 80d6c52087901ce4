"""Unit tests for the mergeable log-bucketed histogram."""

import copy
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_merge_accepts_same_geometry_however_built():
    """Geometry is compared by value: a copied or unpickled histogram
    merges like one built fresh."""
    source = LogHistogram()
    source.extend([0.001, 0.02, 0.3])
    for other in (copy.deepcopy(source), pickle.loads(pickle.dumps(source))):
        merged = LogHistogram().merge(source).merge(other)
        assert len(merged) == 6
        assert merged.nonzero_buckets() == [
            (bound, 2 * count) for bound, count in source.nonzero_buckets()
        ]


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


# ----------------------------------------------------------------------
# Bucket identity: a moved bucket would move every serving digest
# ----------------------------------------------------------------------
def _log_then_walk(hist, value):
    """The index formula before the bounds were precomputed: a float log,
    then a walk up over upper bounds computed with ``**`` per step."""
    last = len(hist._counts) - 1

    def upper(index):
        if index <= 0:
            return hist.min_value
        if index >= last:
            return hist.max_value
        return min(hist.min_value * hist.growth**index, hist.max_value)

    if value <= hist.min_value:
        return 0
    if value >= hist.max_value:
        return last
    index = 1 + int(math.log(value / hist.min_value) / hist._log_growth)
    while upper(index) < value:
        index += 1
    return min(index, last)


#: the serving frontend's geometry, the default one, and a coarse one
GEOMETRIES = [(1e-6, 100.0, 1.02), (1e-6, 1e4, 1.02), (1e-3, 10.0, 1.5)]


@settings(max_examples=300, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_index_equals_log_then_walk_inside_the_range(geometry, fraction):
    hist = LogHistogram(*geometry)
    # log-uniform over (min, max), so every decade is drawn
    value = hist.min_value * (hist.max_value / hist.min_value) ** fraction
    assert hist._index(value) == _log_then_walk(hist, value)


@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_index_equals_log_then_walk_on_every_bucket_bound(geometry):
    hist = LogHistogram(*geometry)
    last = len(hist._counts) - 1
    edges = [hist.min_value, hist.max_value] + [
        min(hist.min_value * hist.growth**index, hist.max_value)
        for index in range(1, last)
    ]
    for value in edges:
        for probe in (value, math.nextafter(value, 0.0),
                      math.nextafter(value, math.inf)):
            assert hist._index(probe) == _log_then_walk(hist, probe)
