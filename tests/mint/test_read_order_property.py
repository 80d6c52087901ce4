"""Property tests for ``NodeGroup.read_order`` under faults and load.

The read path leans on the replica choice for four promises:

* **determinism** — at equal load the preference order is a pure
  function of the key, so two identical fleets route identically;
* **liveness** — while any live replica exists, a down node is never
  preferred over a live one (the failover loop relies on this to find a
  live copy in one pass);
* **rotation** — the batch-assignment bias rotates hot keys across
  replicas instead of hammering the rank-0 copy;
* **storage invariance** — load is reads, not device time or stored
  bytes, so a storage-only change cannot move a read.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ClusterError,
    KeyNotFoundError,
    NodeDownError,
    ReplicationError,
)
from repro.mint.cluster import MintCluster, MintConfig

NODES = 3

keys = st.binary(min_size=1, max_size=24)
crash_masks = st.lists(
    st.booleans(), min_size=NODES, max_size=NODES
).filter(lambda mask: not all(mask))


def fresh_group():
    cluster = MintCluster(
        "dc-prop",
        MintConfig(
            group_count=1, nodes_per_group=NODES, replica_count=NODES,
            node_capacity_bytes=64 * 1024 * 1024,
        ),
    )
    return cluster.groups[0]


@given(key=keys)
@settings(max_examples=60, deadline=None)
def test_read_order_is_deterministic_at_equal_load(key):
    group = fresh_group()
    first = [node.name for node in group.read_order(key)]
    second = [node.name for node in group.read_order(key)]
    assert first == second
    assert sorted(first) == sorted(node.name for node in group.nodes)


@given(key=keys, mask=crash_masks)
@settings(max_examples=60, deadline=None)
def test_down_nodes_never_precede_live_ones(key, mask):
    group = fresh_group()
    for node, down in zip(group.nodes, mask):
        if down:
            node.fail()
    order = group.read_order(key)
    states = [node.is_up for node in order]
    # once the order reaches a down node, every later node is down too
    assert states == sorted(states, reverse=True)
    assert order[0].is_up


@given(key=keys, mask=crash_masks)
@settings(max_examples=60, deadline=None)
def test_assignment_bias_composes_with_faults(key, mask):
    """Rotation never resurrects a down node: even when assignment
    counts make every live node 'busier' than the down one, the down
    node stays last."""
    group = fresh_group()
    for node, down in zip(group.nodes, mask):
        if down:
            node.fail()
    assigned = {node.name: 10 for node in group.nodes if node.is_up}
    order = group.read_order(key, assigned)
    assert order[0].is_up
    states = [node.is_up for node in order]
    assert states == sorted(states, reverse=True)


@given(key=keys)
@settings(max_examples=60, deadline=None)
def test_assignment_bias_rotates_hot_keys(key):
    """Simulating a batch assigning the same hot key repeatedly must
    visit every live replica before reusing one."""
    group = fresh_group()
    assigned: dict = {}
    heads = []
    for _ in range(NODES):
        head = group.read_order(key, assigned)[0]
        heads.append(head.name)
        assigned[head.name] = assigned.get(head.name, 0) + 1
    assert sorted(heads) == sorted(node.name for node in group.nodes)


@given(key=keys)
@settings(max_examples=30, deadline=None)
def test_empty_assignment_matches_unassigned_order(key):
    group = fresh_group()
    assert [n.name for n in group.read_order(key, {})] == [
        n.name for n in group.read_order(key)
    ]


# ----------------------------------------------------------------------
# multi_get's sort-free replica choice, against read_order itself
# ----------------------------------------------------------------------
KEYS = [f"doc-{index:02d}".encode() for index in range(10)]
MEMBERS = 4


def reference_multi_get(group, items, missing):
    """The parent's ``NodeGroup.multi_get``, verbatim: every round sorts
    each item's replicas through ``read_order`` and takes the first
    untried live one."""
    count = len(items)
    if not count:
        return []
    group.multi_gets += 1
    group.batched_gets += count
    results = [None] * count
    tried = [set() for _ in range(count)]
    live_missed = [False] * count
    assigned = {}
    pending = list(range(count))
    while pending:
        per_node = {}
        for index in pending:
            key = items[index][0]
            choice = None
            for node in group.read_order(key, assigned):
                if node.name in tried[index]:
                    continue
                if not node.is_up:
                    node.skipped_gets += 1
                    tried[index].add(node.name)
                    continue
                choice = node
                break
            if choice is None:
                if not live_missed[index]:
                    raise ReplicationError(
                        f"all replicas down for key {key!r} in "
                        f"group {group.group_id}"
                    )
                if missing == "raise":
                    raise KeyNotFoundError(
                        f"no live item for {key!r}/{items[index][1]}"
                    )
                continue
            tried[index].add(choice.name)
            assigned[choice.name] = assigned.get(choice.name, 0) + 1
            per_node.setdefault(choice, []).append(index)
        retry = []
        for node in group.nodes:
            indices = per_node.get(node)
            if not indices:
                continue
            try:
                values = node.get_batch([items[i] for i in indices])
            except NodeDownError:
                node.skipped_gets += len(indices)
                retry.extend(indices)
                continue
            for index, value in zip(indices, values):
                if value is None:
                    node.missing_gets += 1
                    live_missed[index] = True
                    retry.append(index)
                else:
                    results[index] = value
                    if len(tried[index]) > 1:
                        group.failover_gets += 1
        retry.sort()
        pending = retry
    return results


def build_group(history):
    """A 4-member, 3-replica group holding ``KEYS``, after ``history``."""
    cluster = MintCluster(
        "dc-prop",
        MintConfig(
            group_count=1, nodes_per_group=MEMBERS, replica_count=3,
            node_capacity_bytes=64 * 1024 * 1024,
        ),
    )
    group = cluster.groups[0]
    for key in KEYS:
        cluster.put(key, 1, b"value-of-" + key)
    for op, node_index, key_index in history:
        node = group.nodes[node_index % len(group.nodes)]
        try:
            if op == "lose":  # an up replica missing the key
                if node.engine.exists(KEYS[key_index], 1):
                    node.engine.delete(KEYS[key_index], 1)
            elif op == "down":
                node.fail()
            elif op == "busy":  # spread the device clocks apart
                node.engine.device.advance(1e-4 * (1 + key_index))
            elif op == "drain":
                group.mark_draining(node.name)
            elif op == "join":  # open transition; the new member is empty
                group.begin_transition()
                cluster.spawn_node(group)
            elif op == "leave":  # open transition with a draining member
                group.begin_transition()
                group.mark_draining(node.name)
        except ClusterError:
            pass  # e.g. a second transition, or a drain below 3 live
    return group


def observe(group, serve, items, missing):
    """Everything one batch read does that a caller or a metric can see."""
    dispatched = []
    for node in group.nodes:
        def recording(sub_batch, node=node, get_batch=node.get_batch):
            dispatched.append((node.name, list(sub_batch)))
            return get_batch(sub_batch)

        node.get_batch = recording
    try:
        outcome = serve(group, items, missing)
    except (ReplicationError, KeyNotFoundError) as exc:
        outcome = (type(exc), str(exc))
    return {
        "outcome": outcome,
        "dispatched": dispatched,
        "group": (group.multi_gets, group.batched_gets, group.failover_gets),
        "nodes": [
            (node.name, node.gets, node.skipped_gets, node.missing_gets,
             node.engine.device.now)
            for node in group.nodes
        ],
    }


histories = st.lists(
    st.tuples(
        st.sampled_from(
            ["lose", "lose", "down", "busy", "busy", "drain", "join", "leave"]
        ),
        st.integers(min_value=0, max_value=MEMBERS),
        st.integers(min_value=0, max_value=len(KEYS) - 1),
    ),
    max_size=10,
)
batches = st.lists(
    st.tuples(st.sampled_from(KEYS + [b"absent"]), st.just(1)), max_size=14
)


@given(
    history=histories, items=batches, missing=st.sampled_from(["raise", "none"])
)
@settings(max_examples=150, deadline=None)
def test_multi_get_matches_the_read_order_reference(history, items, missing):
    """Down nodes, drains, an open transition, missing and duplicate keys:
    same values (or error), same serving replica per slot in the same
    dispatch order, same counters, same device clocks."""
    new = observe(
        build_group(history),
        lambda group, *args: group.multi_get(*args), items, missing,
    )
    old = observe(build_group(history), reference_multi_get, items, missing)
    assert new == old


# ----------------------------------------------------------------------
# A storage-only change cannot move a read
# ----------------------------------------------------------------------
#: per node: seconds of device time and unrelated records to write
disturbances = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MEMBERS),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=6,
)


def read_tallies(group):
    """What routing decides: every node's read counters, and failovers."""
    return (
        [
            (node.name, node.gets, node.skipped_gets, node.missing_gets,
             node.corrupt_gets)
            for node in group.nodes
        ],
        group.failover_gets,
    )


@given(
    history=histories,
    rounds=st.lists(st.tuples(disturbances, batches), min_size=1, max_size=4),
    missing=st.sampled_from(["raise", "none"]),
)
@settings(max_examples=100, deadline=None)
def test_storage_only_changes_cannot_move_a_read(history, rounds, missing):
    """Two identical groups serve the same batches; before each, the
    twin's devices run ahead and take writes of unrelated keys.  Device
    time and stored bytes are not read load, so every value and every
    read counter stays the same."""
    group, twin = build_group(history), build_group(history)
    written = 0
    for disturbance, items in rounds:
        for node_index, seconds, records in disturbance:
            node = twin.nodes[node_index % len(twin.nodes)]
            node.engine.device.advance(seconds)
            batch = [
                (b"unrelated-%d" % (written + n), 1, b"x" * 300)
                for n in range(records)
            ]
            written += records
            if batch:
                node.engine.put_batch(batch)
        answers = []
        for each in (group, twin):
            try:
                answers.append(each.multi_get(items, missing))
            except (ReplicationError, KeyNotFoundError) as exc:
                answers.append((type(exc), str(exc)))
        assert answers[0] == answers[1]
        assert read_tallies(group) == read_tallies(twin)
