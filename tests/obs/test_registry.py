"""Unit tests for the metrics registry and snapshots."""

import pytest

from repro.errors import ConfigError
from repro.obs import MetricsRegistry


def test_register_and_read_live():
    registry = MetricsRegistry()
    box = {"n": 0}
    registry.register("qindb.n0.puts", lambda: box["n"])
    assert registry.collect()["qindb.n0.puts"] == 0.0
    box["n"] = 7
    assert registry.collect()["qindb.n0.puts"] == 7.0  # live view, no copy


def test_duplicate_name_rejected_unless_replace():
    registry = MetricsRegistry()
    registry.register("a.b", lambda: 1)
    with pytest.raises(ConfigError):
        registry.register("a.b", lambda: 2)
    registry.register("a.b", lambda: 2, replace=True)
    assert registry.collect()["a.b"] == 2.0


def test_invalid_names_rejected():
    registry = MetricsRegistry()
    for bad in ("", ".leading", "trailing."):
        with pytest.raises(ConfigError):
            registry.register(bad, lambda: 0)


def test_prefix_matching_is_segment_aware():
    registry = MetricsRegistry()
    registry.register_many(
        "qindb.n0", {"puts": lambda: 1, "gets": lambda: 2}
    )
    registry.register("qindbx.other", lambda: 3)
    assert sorted(registry.collect("qindb")) == [
        "qindb.n0.gets", "qindb.n0.puts"
    ]
    assert list(registry.collect("qindb.n0.puts")) == ["qindb.n0.puts"]
    # "qindb" must not match "qindbx.*" mid-segment
    assert "qindbx.other" not in registry.collect("qindb")
    assert set(registry.collect("qindb.n0")) == {
        "qindb.n0.puts",
        "qindb.n0.gets",
    }


def test_unregister_prefix():
    registry = MetricsRegistry()
    registry.register_many("ssd.n0", {"a": lambda: 0, "b": lambda: 0})
    registry.register("mint.g0.puts", lambda: 0)
    assert registry.unregister_prefix("ssd") == 2
    assert list(registry.collect()) == ["mint.g0.puts"]


def test_snapshot_query_and_delta():
    registry = MetricsRegistry()
    box = {"a": 1.0, "b": 10.0}
    registry.register("x.a", lambda: box["a"])
    registry.register("x.b", lambda: box["b"])
    first = registry.snapshot(at=1.0)
    box["a"], box["b"] = 4.0, 25.0
    registry.register("x.c", lambda: 100.0)  # registered mid-run
    second = registry.snapshot(at=2.0)
    assert first.values["x.a"] == 1.0
    assert registry.snapshot("x").values == {
        "x.a": 4.0, "x.b": 25.0, "x.c": 100.0
    }
    delta = second.delta(first)
    assert delta == {"x.a": 3.0, "x.b": 15.0, "x.c": 100.0}  # missing -> 0.0


def test_snapshot_is_frozen_against_later_mutation():
    registry = MetricsRegistry()
    box = {"n": 5}
    registry.register("c", lambda: box["n"])
    snap = registry.snapshot()
    box["n"] = 99
    assert snap.values["c"] == 5.0


def test_array_view_short_row_reads_zero():
    """An array row shorter than its registered family reads 0.0.

    A family registered before its backing store grows (a link that
    gains a new sub-stream counter mid-run) returns a short row for a
    while; the missing members must read 0.0 — the scalar "pre-
    registration history is zero" contract — not IndexError the whole
    snapshot.
    """
    registry = MetricsRegistry()
    row = [1.0, 2.0]
    registry.register_array("link.a-b", ("x", "y", "z"), lambda: row)
    values = registry.collect()
    assert values == {"link.a-b.x": 1.0, "link.a-b.y": 2.0, "link.a-b.z": 0.0}
    # prefix-filtered collect takes the other code path; same contract
    assert registry.collect("link.a-b.z") == {"link.a-b.z": 0.0}
    row.append(3.0)  # the backing store catches up
    assert registry.collect()["link.a-b.z"] == 3.0


def test_array_view_mid_run_registration_delta():
    """Array families registered between snapshots diff from zero."""
    registry = MetricsRegistry()
    registry.register("x.a", lambda: 5.0)
    first = registry.snapshot(at=1.0)
    registry.register_array("link.a-b", ("bytes", "sent"), lambda: (8.0, 2.0))
    second = registry.snapshot(at=2.0)
    delta = second.delta(first)
    assert delta["link.a-b.bytes"] == 8.0
    assert delta["link.a-b.sent"] == 2.0


def test_delta_keeps_names_dropped_from_later_snapshot():
    """A counter only the earlier snapshot holds reports 0.0 growth.

    Unregistering (or an array row shrinking) between snapshots must not
    silently drop the name from the diff — downstream rate math iterates
    the delta's keys and would miss the counter entirely.
    """
    registry = MetricsRegistry()
    registry.register("x.a", lambda: 1.0)
    registry.register("x.b", lambda: 2.0)
    first = registry.snapshot(at=1.0)
    registry.unregister_prefix("x.b")
    second = registry.snapshot(at=2.0)
    delta = second.delta(first)
    assert delta == {"x.a": 0.0, "x.b": 0.0}


def test_throughput_sampler_survives_mid_run_array_rows():
    """A sampler fed registry collects rates array members registered
    mid-run.

    The first snapshot predates the family; the second sees a short row
    (backing store still catching up); the third sees the full row.  No
    snapshot may raise and the rate series must count from zero.
    """
    from repro.core.metrics import ThroughputSampler

    registry = MetricsRegistry()
    sampler = ThroughputSampler(interval_s=1.0)
    sampler.prime(0.0, registry.collect())
    row = [10.0]
    registry.register_array("link.a-b", ("bytes", "sent"), lambda: row)
    sampler.maybe_sample(1.0, registry.collect)  # short row: ``sent`` 0.0
    row[0] = 30.0
    row.append(4.0)
    sampler.maybe_sample(2.0, registry.collect)
    assert sampler.rate_series("link.a-b.bytes") == [(0.0, 10.0), (1.0, 20.0)]
    assert sampler.rate_series("link.a-b.sent") == [(0.0, 0.0), (1.0, 4.0)]
