"""Unit tests for the bloom filter."""

import pytest

from repro.errors import ConfigError
from repro.lsm.bloom import BloomFilter


def build(keys, bits_per_key=10):
    """A filter sized for, and holding, ``keys``."""
    bloom = BloomFilter(len(keys), bits_per_key)
    for key in keys:
        bloom.add(key)
    return bloom


def test_no_false_negatives():
    keys = [f"key-{i}".encode() for i in range(500)]
    bloom = build(keys)
    assert all(bloom.may_contain(key) for key in keys)


def test_false_positive_rate_reasonable():
    keys = [f"key-{i}".encode() for i in range(2000)]
    bloom = build(keys, bits_per_key=10)
    probes = [f"absent-{i}".encode() for i in range(2000)]
    false_positives = sum(1 for p in probes if bloom.may_contain(p))
    # 10 bits/key gives ~1% theoretical; allow generous headroom.
    assert false_positives / len(probes) < 0.05


def test_definitely_absent_on_empty_filter():
    bloom = BloomFilter(expected_items=10)
    assert not bloom.may_contain(b"anything")


def test_more_bits_fewer_false_positives():
    keys = [f"key-{i}".encode() for i in range(1000)]
    probes = [f"absent-{i}".encode() for i in range(3000)]

    def fp_rate(bits):
        bloom = build(keys, bits_per_key=bits)
        return sum(1 for p in probes if bloom.may_contain(p))

    assert fp_rate(16) <= fp_rate(4)


def test_size_scales_with_expected_items():
    small = BloomFilter(expected_items=100)
    large = BloomFilter(expected_items=10_000)
    assert large.size_bytes > small.size_bytes


def test_validation():
    with pytest.raises(ConfigError):
        BloomFilter(expected_items=-1)
    with pytest.raises(ConfigError):
        BloomFilter(expected_items=10, bits_per_key=0)


def test_deterministic_across_instances():
    keys = [f"k{i}".encode() for i in range(100)]
    a = build(keys)
    b = build(keys)
    probes = [f"p{i}".encode() for i in range(100)]
    assert [a.may_contain(p) for p in probes] == [
        b.may_contain(p) for p in probes
    ]
