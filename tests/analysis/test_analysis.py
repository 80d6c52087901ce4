"""Unit tests for statistics, table rendering, and RUM accounting."""

import pytest

from repro.analysis.rum import rum_profile
from repro.analysis.stats import pearson_correlation
from repro.analysis.tables import render_table
from repro.core.metrics import PercentileTracker
from repro.errors import ConfigError
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.qindb.engine import QinDB, QinDBConfig


# --------------------------------------------------------------------- stats
def test_pearson_correlation_extremes():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert pearson_correlation(xs, [2.0, 4.0, 6.0, 8.0]) == pytest.approx(1.0)
    assert pearson_correlation(xs, [8.0, 6.0, 4.0, 2.0]) == pytest.approx(-1.0)
    assert pearson_correlation(xs, [5.0, 5.0, 5.0, 5.0]) == 0.0


def test_pearson_validation():
    with pytest.raises(ConfigError):
        pearson_correlation([1.0], [1.0, 2.0])
    with pytest.raises(ConfigError):
        pearson_correlation([1.0], [1.0])


# -------------------------------------------------------------------- tables
def test_render_table_alignment():
    text = render_table(
        ["metric", "value"], [["latency", 12.5], ["count", 3]]
    )
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert "metric" in lines[0]
    assert all(len(line) == len(lines[0]) for line in lines[1:])


def test_render_table_number_formatting():
    text = render_table(["v"], [[0.1234567], [12345.6], [0]])
    assert "0.1235" in text
    assert "12,346" in text


# ----------------------------------------------------------------------- rum
def test_rum_profiles_capture_the_trade():
    qindb = QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
    )
    lsm = LSMEngine.with_capacity(
        16 * 1024 * 1024,
        config=LSMConfig(memtable_bytes=16 * 1024, level1_max_bytes=64 * 1024,
                         max_file_bytes=16 * 1024),
    )
    live_bytes = 0
    for engine in (qindb, lsm):
        for index in range(200):
            engine.put(f"key-{index:04d}".encode(), 1, b"v" * 500)
    live_bytes = 200 * 504

    latencies = {}
    for name, engine in (("q", qindb), ("l", lsm)):
        tracker = PercentileTracker()
        for index in range(0, 200, 5):
            before = engine.device.now
            engine.get(f"key-{index:04d}".encode(), 1)
            tracker.add(engine.device.now - before)
        latencies[name] = tracker

    q_profile = rum_profile(qindb, latencies["q"], live_bytes)
    l_profile = rum_profile(lsm, latencies["l"], live_bytes)

    assert q_profile.engine == "QinDB"
    assert l_profile.engine == "LSM"
    # U: the LSM pays more write amplification.
    assert l_profile.write_amplification > q_profile.write_amplification
    # All coordinates populated sanely.
    for profile in (q_profile, l_profile):
        assert profile.read_latency_avg_s > 0
        assert profile.memory_bytes > 0
        assert profile.storage_bytes > 0
        assert profile.storage_overhead >= 0.5
