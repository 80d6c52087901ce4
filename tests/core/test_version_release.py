"""Unit tests for version retention and the gray release machine."""

import pytest

from repro.core.release import (
    GrayObservation,
    GrayRelease,
    ReleasePhase,
    ReleaseThresholds,
    estimate_inconsistency,
)
from repro.core.version import VersionManager
from repro.errors import ConfigError, ReleaseError


DCS = ["north-dc1", "north-dc2", "east-dc1", "east-dc2", "south-dc1", "south-dc2"]


# ----------------------------------------------------------- VersionManager
def test_install_keeps_at_most_four():
    manager = VersionManager(max_live_versions=4)
    evicted = []
    for version in range(1, 7):
        manager.install(version)
        manager.activate(version)
        evicted += manager.live_versions[:0]  # no-op, clarity
    assert manager.live_versions == [3, 4, 5, 6]


def test_install_returns_evicted_versions():
    manager = VersionManager(max_live_versions=4)
    for version in range(1, 5):
        assert manager.install(version) == []
        manager.activate(version)
    assert manager.install(5) == [1]


def test_install_rejects_regressions():
    manager = VersionManager()
    manager.install(3)
    with pytest.raises(ReleaseError):
        manager.install(3)
    with pytest.raises(ReleaseError):
        manager.install(2)


def test_eviction_pins_the_active_version():
    manager = VersionManager(max_live_versions=4)
    for version in range(1, 5):
        manager.install(version)
    manager.activate(1)  # stuck on version 1 (rollbacks happened)
    evicted = manager.install(5)
    assert 1 not in evicted
    assert 1 in manager.live_versions


def test_activate_unknown_version_rejected():
    manager = VersionManager()
    with pytest.raises(ReleaseError):
        manager.activate(9)


def test_rollback_moves_to_previous():
    manager = VersionManager()
    manager.install(1)
    manager.install(2)
    manager.activate(2)
    assert manager.rollback() == 1
    assert manager.active_version == 1


def test_rollback_without_older_version_rejected():
    manager = VersionManager()
    manager.install(1)
    manager.activate(1)
    with pytest.raises(ReleaseError):
        manager.rollback()
    fresh = VersionManager()
    with pytest.raises(ReleaseError):
        fresh.rollback()


def test_version_manager_validation():
    with pytest.raises(ConfigError):
        VersionManager(max_live_versions=1)


# ----------------------------------------------------- inconsistency model
def test_inconsistency_estimate_scales_with_change():
    low = estimate_inconsistency(duplicate_ratio=0.9)
    high = estimate_inconsistency(duplicate_ratio=0.2)
    assert high > low
    assert estimate_inconsistency(duplicate_ratio=1.0) == 0.0


def test_inconsistency_paper_band():
    # With the paper's ~70% duplicates, inconsistency sits under 0.1%.
    value = estimate_inconsistency(duplicate_ratio=0.7, cross_region_share=0.015)
    assert value < 0.001


def test_inconsistency_validation():
    with pytest.raises(ConfigError):
        estimate_inconsistency(duplicate_ratio=1.5)


# ----------------------------------------------------------- GrayRelease
def test_gray_release_happy_path():
    release = GrayRelease("north-dc1")
    release.start(2, DCS, previous=1)
    assert release.phase is ReleasePhase.GRAY
    assert release.serving["north-dc1"] == 2
    assert release.serving["east-dc1"] == 1
    passed = release.observe(
        GrayObservation(inconsistency_rate=0.0005, error_rate=0.0, p99_latency_s=0.1)
    )
    assert passed
    release.promote()
    assert release.phase is ReleasePhase.ACTIVE
    assert all(version == 2 for version in release.serving.values())


def test_gray_release_gate_failures():
    thresholds = ReleaseThresholds()
    release = GrayRelease("north-dc1", thresholds)
    release.start(2, DCS, previous=1)
    assert not release.observe(
        GrayObservation(inconsistency_rate=0.01, error_rate=0.0, p99_latency_s=0.1)
    )
    assert not release.observe(
        GrayObservation(inconsistency_rate=0.0, error_rate=0.01, p99_latency_s=0.1)
    )
    assert not release.observe(
        GrayObservation(inconsistency_rate=0.0, error_rate=0.0, p99_latency_s=0.9)
    )


def test_gray_release_rollback_restores_old_version():
    release = GrayRelease("north-dc1")
    release.start(2, DCS, previous=1)
    release.rollback()
    assert release.phase is ReleasePhase.ROLLED_BACK
    assert all(version == 1 for version in release.serving.values())


def test_gray_release_state_machine_guards():
    release = GrayRelease("north-dc1")
    with pytest.raises(ReleaseError):
        release.promote()
    with pytest.raises(ReleaseError):
        release.rollback()
    with pytest.raises(ReleaseError):
        release.observe(
            GrayObservation(inconsistency_rate=0, error_rate=0, p99_latency_s=0)
        )
    release.start(1, DCS, previous=None)
    with pytest.raises(ReleaseError):
        release.start(2, DCS, previous=1)  # already in gray


def test_gray_release_unknown_dc_rejected():
    release = GrayRelease("mars-dc1")
    with pytest.raises(ReleaseError):
        release.start(1, DCS, previous=None)


def test_first_release_serves_new_version_everywhere_after_promote():
    release = GrayRelease("north-dc1")
    release.start(1, DCS, previous=None)
    release.promote()
    assert all(version == 1 for version in release.serving.values())
