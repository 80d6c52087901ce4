"""Unit tests for the workload generators and the replay harness."""

import pytest

from repro.errors import ConfigError
from repro.qindb.engine import QinDB, QinDBConfig
from repro.workloads.fig5 import Fig5Workload, Fig5WorkloadConfig
from repro.workloads.kvtrace import KVOp, OpKind, make_value, replay_trace
from repro.workloads.month import MonthlyTrace, MonthlyTraceConfig


# ---------------------------------------------------------------- make_value
def test_make_value_deterministic_and_sized():
    a = make_value(b"key", 1, 1000)
    b = make_value(b"key", 1, 1000)
    assert a == b
    assert len(a) == 1000
    assert make_value(b"key", 2, 1000) != a
    assert make_value(b"kez", 1, 1000) != a
    assert make_value(b"key", 1, 0) == b""
    with pytest.raises(ConfigError):
        make_value(b"key", 1, -1)


# ---------------------------------------------------------------------- fig5
def test_fig5_shape_counts():
    config = Fig5WorkloadConfig(
        key_count=50, versions=6, retained_versions=4, value_bytes_mean=200
    )
    ops = list(Fig5Workload(config).ops())
    puts = [op for op in ops if op.kind is OpKind.PUT]
    deletes = [op for op in ops if op.kind is OpKind.DELETE]
    assert len(puts) == 50 * 6
    # Versions 5 and 6 expire versions 1 and 2: 2 x 50 deletions.
    assert len(deletes) == 100
    deleted_versions = {op.version for op in deletes}
    assert deleted_versions == {1, 2}


def test_fig5_keys_are_fixed_width():
    config = Fig5WorkloadConfig(key_count=10, key_bytes=20)
    workload = Fig5Workload(config)
    assert len(workload.key(0)) == 20
    assert len(workload.key(9)) == 20


def test_fig5_deletes_interleave_with_inserts():
    config = Fig5WorkloadConfig(
        key_count=70, versions=5, retained_versions=4, value_bytes_mean=100
    )
    ops = list(Fig5Workload(config).ops())
    version5 = [op for op in ops if op.version == 5 or op.version == 1]
    kinds = [op.kind for op in version5]
    # Deletions of version 1 appear between insertions of version 5,
    # not all at the end.
    first_delete = kinds.index(OpKind.DELETE)
    assert first_delete < len(kinds) - 70


def test_fig5_dedup_ratio_produces_valueless_puts():
    config = Fig5WorkloadConfig(
        key_count=200, versions=2, dedup_ratio=0.5, value_bytes_mean=100
    )
    ops = [op for op in Fig5Workload(config).ops() if op.kind is OpKind.PUT]
    valueless = sum(1 for op in ops if op.value is None)
    assert 0.35 < valueless / len(ops) < 0.65


def test_fig5_value_sizes_spread_around_mean():
    config = Fig5WorkloadConfig(
        key_count=200, versions=1, value_bytes_mean=1000, value_spread=0.2
    )
    sizes = [
        len(op.value)
        for op in Fig5Workload(config).ops()
        if op.kind is OpKind.PUT
    ]
    assert all(800 <= size <= 1200 for size in sizes)
    assert 950 < sum(sizes) / len(sizes) < 1050



def test_fig5_config_validation():
    with pytest.raises(ConfigError):
        Fig5WorkloadConfig(key_count=0)
    with pytest.raises(ConfigError):
        Fig5WorkloadConfig(dedup_ratio=1.0)
    with pytest.raises(ConfigError):
        Fig5WorkloadConfig(key_bytes=4)


# -------------------------------------------------------------------- replay
def test_replay_trace_samples_counters():
    engine = QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=256 * 1024)
    )
    config = Fig5WorkloadConfig(
        key_count=30, versions=5, retained_versions=2, value_bytes_mean=2000
    )
    result = replay_trace(engine, Fig5Workload(config).ops(), sample_interval_s=0.01)
    assert result.ops_applied == 30 * 5 + 30 * 3
    assert result.elapsed_s > 0
    assert len(result.user_write_series) >= 1
    assert result.user_write_mean_mbs > 0
    assert result.sys_write_mean_mbs >= result.user_write_mean_mbs * 0.5
    assert result.disk_used_series[-1][1] > 0


def test_replay_tolerates_gets_on_missing_keys():
    engine = QinDB.with_capacity(8 * 1024 * 1024)
    ops = [KVOp(OpKind.GET, b"ghost", 1), KVOp(OpKind.DELETE, b"ghost", 1)]
    result = replay_trace(engine, ops)
    assert result.ops_applied == 2


# --------------------------------------------------------------------- month
def test_month_schedule_shape():
    trace = MonthlyTrace(MonthlyTraceConfig(days=30))
    days = trace.days()
    assert len(days) == 30
    ratios = [d.dedup_ratio for d in days]
    assert min(ratios) == pytest.approx(0.23)
    assert max(ratios) == pytest.approx(0.80)
    assert days[2].dedup_ratio == pytest.approx(0.23)  # the dip day
    assert days[14].dedup_ratio == pytest.approx(0.80)  # the peak day


def test_month_mutation_rate_complements_dedup():
    trace = MonthlyTrace()
    for day in trace.days():
        assert day.mutation_rate == pytest.approx(1.0 - day.dedup_ratio)


def test_month_deterministic_by_seed():
    a = [d.dedup_ratio for d in MonthlyTrace(MonthlyTraceConfig(seed=4)).days()]
    b = [d.dedup_ratio for d in MonthlyTrace(MonthlyTraceConfig(seed=4)).days()]
    assert a == b


def test_month_validation():
    with pytest.raises(ConfigError):
        MonthlyTraceConfig(days=0)
    with pytest.raises(ConfigError):
        MonthlyTraceConfig(min_dedup=0.9, max_dedup=0.5)


def test_month_rejects_explicit_days_outside_schedule():
    # An explicit dip/peak day outside [1, days] used to be silently
    # ignored (the paper's 23% dip just never happened); it now raises.
    with pytest.raises(ConfigError):
        MonthlyTraceConfig(days=10, dip_day=11)
    with pytest.raises(ConfigError):
        MonthlyTraceConfig(days=10, peak_day=0)
    with pytest.raises(ConfigError):
        MonthlyTraceConfig(days=10, peak_day=-3)


def test_month_default_days_clamp_to_short_schedules():
    config = MonthlyTraceConfig(days=8)
    assert config.dip_day == 3 and config.peak_day == 8
    days = MonthlyTrace(config).days()
    assert days[2].dedup_ratio == pytest.approx(0.23)
    assert days[7].dedup_ratio == pytest.approx(0.80)
    # When both defaults clamp onto the same day, the hard dip wins.
    tiny = MonthlyTraceConfig(days=2)
    assert tiny.dip_day == tiny.peak_day == 2
    assert MonthlyTrace(tiny).days()[1].dedup_ratio == pytest.approx(0.23)


def test_month_explicit_days_are_honored():
    config = MonthlyTraceConfig(days=12, dip_day=5, peak_day=9)
    days = MonthlyTrace(config).days()
    assert days[4].dedup_ratio == pytest.approx(0.23)
    assert days[8].dedup_ratio == pytest.approx(0.80)


def test_replay_pacing_holds_the_offered_rate():
    """With pacing, the device-clock write rate tracks the offered rate
    when the engine can keep up."""
    engine = QinDB.with_capacity(
        64 * 1024 * 1024, config=QinDBConfig(segment_bytes=2 * 1024 * 1024)
    )
    config = Fig5WorkloadConfig(
        key_count=64, versions=4, retained_versions=4, value_bytes_mean=8192
    )
    pace = 2 * 1024 * 1024.0
    result = replay_trace(
        engine,
        Fig5Workload(config).ops(),
        sample_interval_s=0.25,
        pace_user_bytes_per_s=pace,
    )
    # every key of every version, each with its own value (no dedup)
    user_bytes = config.versions * config.key_count * (
        config.key_bytes + config.value_bytes_mean
    )
    expected_s = user_bytes / pace
    assert result.elapsed_s == pytest.approx(expected_s, rel=0.1)
    interior = [v for _t, v in result.user_write_series][1:-1]
    for rate in interior:
        assert rate == pytest.approx(pace / 1024 / 1024, rel=0.2)


def test_replay_without_pacing_runs_at_device_speed():
    engine = QinDB.with_capacity(32 * 1024 * 1024)
    config = Fig5WorkloadConfig(
        key_count=32, versions=2, retained_versions=4, value_bytes_mean=4096
    )
    result = replay_trace(engine, Fig5Workload(config).ops(), 3600)
    # Unpaced: elapsed is just the device busy time (far faster than any
    # realistic offered rate).
    assert result.elapsed_s < 1.0
