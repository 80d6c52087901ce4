"""The chaos workload's two contracts: zero acknowledged loss under the
single-node-crash plan, and byte-identical equivalence under the empty
plan."""

import dataclasses

import pytest

from repro.core.directload import DirectLoad
from repro.errors import ConfigError
from repro.faults.plan import LinkPartition, NodeCrash
from repro.workloads.chaos import (
    ChaosConfig,
    build_chaos_system,
    fleet_state,
    resolve_plan,
    run_chaos,
    run_plain_cycles,
)


@pytest.fixture(scope="module")
def crash_run():
    return run_chaos(ChaosConfig(plan="single-node-crash"))


def test_single_node_crash_loses_no_acknowledged_key(crash_run):
    data = crash_run.data
    assert data["verified_keys"] > 0
    assert data["lost_acknowledged_keys"] == 0


def test_single_node_crash_fully_reprotects(crash_run):
    data = crash_run.data
    assert data["faults"]["node_crashes"] == 1
    assert data["faults"]["node_restarts"] == 1
    assert data["faults"]["repair_keys"] > 0
    assert data["faults"]["reprotect_last_s"] > 0
    assert data["under_replicated_final"] == 0


def test_chaos_probes_availability(crash_run):
    availability = crash_run.data["availability"]
    assert availability["probes"] > 0
    assert 0.0 <= availability["unavailable_ratio"] <= 1.0
    # The probe counters surface in the metrics registry too.
    metrics = crash_run.system.metrics.collect("faults.reads")
    assert metrics["faults.reads.probes"] == availability["probes"]


def test_chaos_is_deterministic():
    first = run_chaos(ChaosConfig(plan="single-node-crash"))
    again = run_chaos(ChaosConfig(plan="single-node-crash"))
    assert first.data == again.data
    assert fleet_state(first.system) == fleet_state(again.system)


def test_empty_plan_is_byte_identical_to_plain_cycles():
    config = ChaosConfig(plan="none", cycles=2, mutation_rate=0.3)
    chaos = run_chaos(config)
    plain = run_plain_cycles(cycles=2, mutation_rate=0.3)

    assert chaos.data["fault_events"] == 0
    assert chaos.data["lost_acknowledged_keys"] == 0
    # The chaos harness added nothing: same stored representation of
    # every replica of every key, and the same per-cycle reports.
    assert fleet_state(chaos.system) == fleet_state(plain)
    chaos_versions = {
        dc: dict(cluster.version_keys)
        for dc, cluster in chaos.system.clusters.items()
    }
    plain_versions = {
        dc: dict(cluster.version_keys)
        for dc, cluster in plain.clusters.items()
    }
    assert chaos_versions == plain_versions


def test_fleet_state_of_an_lsm_fleet_holds_values():
    """``peek`` is part of the ``Engine`` protocol, so the witness is not
    vacuous on the baseline engine: every replica's record is there."""
    config = dataclasses.replace(build_chaos_system().config, engine="lsm")
    system = DirectLoad(config)
    system.run_pipelined_cycles([None, 0.3])
    state = fleet_state(system)
    assert state
    assert all(
        record is not None and record[0] is not None
        for record in state.values()
    )


def test_resolve_plan_accepts_names_and_raw_text():
    assert resolve_plan("single-node-crash").events[0] == NodeCrash(
        at_s=1.0, node="north-dc1/g0/n0", down_s=4.0
    )
    inline = resolve_plan("partition link=origin-north at=0.5 dur=6")
    assert inline.name == "inline"
    assert isinstance(inline.events[0], LinkPartition)
    with pytest.raises(ConfigError):
        resolve_plan("no-such-plan")


def test_chaos_config_validates():
    with pytest.raises(ConfigError):
        ChaosConfig(cycles=1)
    with pytest.raises(ConfigError):
        ChaosConfig(probe_interval_s=0.0)
