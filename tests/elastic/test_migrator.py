"""Migrator: the four membership operations on a live cluster."""

import types

import pytest

from repro.elastic.migrator import Migrator, MigratorConfig
from repro.errors import ConfigError, MigrationError, ReplicationError
from repro.mint.cluster import MintCluster, MintConfig
from repro.simulation.kernel import Simulator
from repro.workloads.chaos import fleet_state


def build(groups=1, nodes=3):
    sim = Simulator()
    cluster = MintCluster(
        "dc1",
        MintConfig(
            group_count=groups, nodes_per_group=nodes,
            node_capacity_bytes=32 * 1024 * 1024,
        ),
    )
    return sim, cluster, Migrator(sim, cluster)


def load_keys(cluster, count, version=1, value=b"v" * 16):
    keys = [f"key-{i:04d}".encode() for i in range(count)]
    for key in keys:
        cluster.put(key, version, value)
    cluster.version_keys.setdefault(version, []).extend(keys)
    return keys


def replica_copies(cluster, key, version):
    """How many nodes fleet-wide hold a live copy of ``key``."""
    return sum(
        node.engine.exists(key, version) for node in cluster.all_nodes
    )


def assert_fully_replicated(cluster, keys, version=1):
    for key in keys:
        assert cluster.get(key, version) == b"v" * 16
        # exactly replica_count copies: migrated in, stale ones withdrawn
        assert replica_copies(cluster, key, version) == 3
    assert cluster.under_replicated() == []


def test_join_rebalances_and_withdraws():
    sim, cluster, migrator = build()
    group = cluster.groups[0]
    keys = load_keys(cluster, 120)

    sim.run(until=migrator.join_node(group))

    assert len(group.nodes) == 4 and not group.in_transition
    assert migrator.idle
    assert migrator.stats.keys_moved > 0
    assert migrator.stats.withdrawals > 0
    assert_fully_replicated(cluster, keys)
    new_node = group.nodes[-1]
    assert any(new_node.engine.exists(key, 1) for key in keys)


def test_leave_drains_then_decommissions():
    sim, cluster, migrator = build(nodes=4)
    group = cluster.groups[0]
    keys = load_keys(cluster, 120)
    leaver = group.nodes[-1].name

    sim.run(until=migrator.leave_node(group, leaver))

    assert leaver not in {node.name for node in group.nodes}
    assert len(group.nodes) == 3
    assert_fully_replicated(cluster, keys)


def test_a_node_takes_back_a_key_it_withdrew(monkeypatch):
    """Join, then leave the joined node: keys return to the nodes that
    withdrew them, which still hold those records deleted.  A version is
    written once, so each restores its own copy and none is put again;
    a restart before GC drops the tombstones loses the restores, and
    repair lands them once more."""
    from repro.faults.repair import ReplicaRepairer
    from repro.qindb.engine import QinDB

    restored = []
    restore = QinDB.restore

    def counting(self, key, version):
        done = restore(self, key, version)
        restored.append(done)
        return done

    monkeypatch.setattr(QinDB, "restore", counting)
    sim, cluster, migrator = build()
    group = cluster.groups[0]
    keys = load_keys(cluster, 120)
    sim.run(until=migrator.join_node(group))
    withdrawn = sum(
        node.engine.holds(key, 1) and not node.engine.exists(key, 1)
        for node in group.nodes for key in keys
    )
    assert withdrawn > 0
    sim.run(until=migrator.leave_node(group, group.nodes[-1].name))
    assert restored.count(True) == withdrawn
    assert_fully_replicated(cluster, keys)

    node = group.nodes[0]
    node.engine.flush()
    node.fail()
    node.recover()
    lost = sum(not node.engine.exists(key, 1) for key in keys)
    assert lost > 0  # restores whose tombstones were still on flash
    result = ReplicaRepairer().repair_node(cluster, group, node)
    assert result.keys_copied == lost
    assert restored.count(True) == withdrawn + lost
    assert_fully_replicated(cluster, keys)


def test_split_moves_half_the_slots():
    sim, cluster, migrator = build()
    keys = load_keys(cluster, 120)

    sim.run(until=migrator.split_group(cluster.groups[0]))

    assert len(cluster.groups) == 2
    source, target = cluster.groups
    assert cluster._moving_slots == {}
    assert set(cluster.slots_of(source)) | set(cluster.slots_of(target)) == (
        set(range(cluster.slot_count))
    )
    assert_fully_replicated(cluster, keys)
    # the new group actually owns data now
    assert any(
        node.engine.exists(key, 1)
        for key in keys
        for node in target.nodes
    )


def test_merge_retires_the_source_group():
    sim, cluster, migrator = build(groups=2)
    keys = load_keys(cluster, 120)
    source, target = cluster.groups[1], cluster.groups[0]

    sim.run(until=migrator.merge_group(source, target))

    assert len(cluster.groups) == 1
    assert cluster.groups[0] is target
    assert_fully_replicated(cluster, keys)


def test_migrated_fleet_matches_statically_provisioned():
    """Join-after-load must be byte-identical to join-before-load."""
    sim_a, grown, migrator = build()
    keys = load_keys(grown, 80)
    sim_a.run(until=migrator.join_node(grown.groups[0]))

    sim_b, static, static_migrator = build()
    sim_b.run(until=static_migrator.join_node(static.groups[0]))
    load_keys(static, 80)

    state_a = fleet_state(types.SimpleNamespace(clusters={"dc1": grown}))
    state_b = fleet_state(types.SimpleNamespace(clusters={"dc1": static}))
    assert state_a == state_b


def test_version_dropped_mid_move_is_never_resurrected():
    sim, cluster, migrator = build()
    keys = load_keys(cluster, 120, version=1)
    load_keys(cluster, 120, version=2)
    # slow the copy stream down so the drop lands mid-operation
    migrator.config = MigratorConfig(
        bandwidth_bps=50_000.0, max_records_per_s=200.0
    )

    proc = migrator.split_group(cluster.groups[0])
    sim.run(until=sim.now + 0.05)
    assert not proc.triggered, "drop must land while the split is in flight"
    cluster.drop_version(1)
    sim.run(until=proc)

    assert 1 not in cluster.version_keys
    for key in keys:
        assert replica_copies(cluster, key, 1) == 0
        assert cluster.get(key, 2) == b"v" * 16


@pytest.mark.parametrize("operation", ["join", "split"])
def test_version_dropped_during_withdraw_leaves_no_copy(operation):
    """A version dropped after cutover, while the withdraw is still
    deleting the stale copies, is gone from every node: eviction does
    not depend on where the current placement puts a key."""
    sim, cluster, migrator = build()
    keys = load_keys(cluster, 120, version=1)
    load_keys(cluster, 120, version=2)
    migrator.config = MigratorConfig(max_records_per_s=200.0)
    if operation == "join":
        proc = migrator.join_node(cluster.groups[0])
    else:
        proc = migrator.split_group(cluster.groups[0])
    while migrator.stats.withdrawals == 0:
        sim.run(until=sim.now + 0.01)
    assert not proc.triggered, "drop must land while the withdraw runs"
    cluster.drop_version(1)
    sim.run(until=proc)

    assert sum(replica_copies(cluster, key, 1) for key in keys) == 0
    for key in keys:
        assert cluster.get(key, 2) == b"v" * 16


def test_read_of_a_moving_slot_falls_back_to_the_new_owner():
    """Mid-move the old owner is authoritative; with every replica of it
    down, a dual-applied key still reads from the new owner — through
    ``get`` and ``multi_get`` alike, beside items of settled slots."""
    _sim, cluster, _migrator = build(groups=2)
    key, steady = b"key-moving", b"key-steady"
    source = cluster.group_for(key)
    target = next(group for group in cluster.groups if group is not source)
    assert cluster.group_for(steady) is target  # a slot that is not moving
    cluster.begin_slot_move(cluster.slot_for(key), target)
    cluster.put(key, 1, b"dual-applied")
    cluster.put(steady, 1, b"settled")
    assert replica_copies(cluster, key, 1) == 6
    # while the old owner serves, the new one is not consulted
    assert cluster.get(key, 1) == b"dual-applied"
    assert sum(node.gets for node in target.nodes) == 0

    for node in source.nodes:
        node.fail()
    assert cluster.get(key, 1) == b"dual-applied"
    assert cluster.multi_get([(key, 1)], missing="none") == [b"dual-applied"]
    assert cluster.multi_get([(steady, 1), (key, 1)]) == [
        b"settled", b"dual-applied",
    ]
    with pytest.raises(ReplicationError):
        source.multi_get([(key, 1)])


def test_dedup_chain_bases_migrate_with_their_referents():
    """A retired base record must land on fresh replicas or chains dangle."""
    sim, cluster, migrator = build()
    keys = load_keys(cluster, 60, version=1)
    for key in keys:  # v2 deduplicates against v1's bytes
        cluster.put(key, 2, None)
    cluster.version_keys.setdefault(2, []).extend(keys)
    cluster.drop_version(1)  # v1 retires; its values stay only as GC referents

    group = cluster.groups[0]
    sim.run(until=migrator.join_node(group))

    assert migrator.stats.bases_copied > 0
    new_node = group.nodes[-1]
    served = 0
    for key in keys:
        if new_node.engine.exists(key, 2):
            # the fresh replica resolves the chain without any peer
            assert new_node.engine.get(key, 2) == b"v" * 16
            served += 1
    assert served > 0, "join must have moved some chained keys"


def test_concurrent_operations_are_rejected():
    sim, cluster, migrator = build()
    load_keys(cluster, 40)

    first = migrator.split_group(cluster.groups[0])
    second = migrator.join_node(cluster.groups[0])
    with pytest.raises(MigrationError):
        sim.run(until=second)
    sim.run(until=first)  # the in-flight op still completes cleanly
    assert migrator.idle
    assert len(cluster.groups) == 2


def test_config_validation():
    with pytest.raises(ConfigError):
        MigratorConfig(bandwidth_bps=0)
    with pytest.raises(ConfigError):
        MigratorConfig(max_verify_rounds=0)
