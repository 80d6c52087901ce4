"""The growing-fleet rebalance workload and its exit contracts."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.workloads.rebalance import (
    RebalanceConfig,
    bench_entry,
    run_rebalance,
)

SMALL = RebalanceConfig(
    days=4,
    split_day=2,
    scale_up_above=1e12,  # keep the short run scripted-split-only
    scale_down_below=1.0,
)


@pytest.fixture(scope="module")
def small_run():
    return run_rebalance(SMALL, tracing=False)


def holder_counts(system):
    """How many nodes of its data center hold each live ``(key,
    version)`` — every node, not only those placement names."""
    counts = set()
    for cluster in system.clusters.values():
        for version, keys in cluster.version_keys.items():
            for key in set(keys):
                counts.add(
                    sum(
                        node.engine.exists(key, version)
                        for node in cluster.all_nodes
                    )
                )
    return counts


def test_clean_run_holds_every_contract(small_run):
    data = small_run.data
    assert data["lost_acknowledged_keys"] == 0
    assert data["under_replicated_final"] == 0
    assert data["over_replicated_final"] == 0
    assert data["equivalence"]["digests_match"] is True
    assert data["verified_keys"] > 0
    assert data["availability"]["unavailable"] == 0


def test_every_live_item_is_withdrawn_down_to_the_replica_count(small_run):
    # A version ingested mid-move is dual-applied to the old placement
    # too; the withdrawal after cutover must take that copy back as well.
    assert holder_counts(small_run.system) == {3}


def test_scripted_split_runs_in_every_dc(small_run):
    operations = small_run.data["operations"]
    splits = [op for op in operations if op["kind"] == "split"]
    assert len(splits) == len(small_run.system.clusters)
    # the fleet actually grew by one group per data center
    fleet = small_run.data["fleet"]
    assert fleet["final"]["groups"] == fleet["start"]["groups"] + len(splits)
    assert all(migrator.idle for migrator in small_run.migrators.values())


def test_report_carries_telemetry_and_health(small_run):
    data = small_run.data
    assert data["telemetry"]["samples"] > 0
    health = data["health"]
    assert "elastic" in health
    assert health["elastic"]["moving_keys"] == 0  # quiesced at the end
    assert health["elastic"]["rebalancing"] is False
    assert data["read_latency"]["overall"]["count"] > 0


def test_crash_during_split_converges():
    config = RebalanceConfig(
        days=4,
        split_day=2,
        plan="crash node=north-dc1/g1/n0 at=0.05 down=2",
        scale_up_above=1e12,
        scale_down_below=1.0,
    )
    run = run_rebalance(config, tracing=False)
    data = run.data
    assert data["faults"]["node_crashes"] == 1
    assert data["faults"]["node_restarts"] == 1
    assert data["lost_acknowledged_keys"] == 0
    assert data["under_replicated_final"] == 0
    assert data["over_replicated_final"] == 0
    assert holder_counts(run.system) == {3}
    assert data["equivalence"]["digests_match"] is True


def test_bench_entry_distils_the_report(small_run):
    entry = bench_entry(small_run.data)
    assert entry["zero_loss"] is True
    assert entry["digests_match"] is True
    assert entry["operations"] == len(small_run.data["operations"])
    # The movement and mid-move read numbers are exact per seed; pinned
    # so a change that moves more bytes or slows mid-move reads shows up.
    assert entry["bytes_moved"] == 2_626_992
    assert entry["keys_moved"] == 1_101
    # withdrawing every live version of a moved key, not only the
    # planned ones, takes back more copies (the planned alone: 9.9897 s)
    assert entry["move_duration_s"] == 10.3587
    assert entry["read_p99_during_move_s"] == 6.5e-05


def test_config_validation():
    with pytest.raises(ConfigError):
        RebalanceConfig(days=1)
    with pytest.raises(ConfigError):
        RebalanceConfig(days=4, split_day=9)
    with pytest.raises(ConfigError):
        RebalanceConfig(max_nodes_per_group=2)


def test_cli_rebalance_json_and_gate(capsys):
    code = main(["rebalance", "--days", "4", "--split-day", "2", "--json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    entry = data["entry"]
    assert entry["zero_loss"] and entry["digests_match"]
    assert entry["under_replicated_final"] == 0
    assert entry["over_replicated_final"] == 0
    for section in ("availability", "fleet", "autoscaler"):
        assert section in data


def test_cli_rebalance_renders_contracts(capsys):
    code = main(["rebalance", "--days", "4", "--split-day", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "zero acknowledged-key loss" in out
    assert "byte-identical vs static baseline" in out
    assert "[ok]" in out and "FAIL" not in out
