"""ServingFrontend: coalescing, admission control, SLO accounting.

The frontend's contract: concurrent arrivals for one group share a
batch; a request past the queue-depth bound is shed synchronously with
a typed :class:`OverloadError` (never silently dropped, never queued);
admitted requests complete with the right bytes and their latency lands
in the streaming trackers; draining leaves nothing outstanding.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import repro.mint.group as group_module
from repro.errors import OverloadError
from repro.mint.cluster import MintCluster, MintConfig
from repro.obs.registry import MetricsRegistry
from repro.qindb.records import Record
from repro.serving import ServingConfig, ServingFrontend
from repro.simulation.kernel import Simulator


def outstanding(frontend):
    """Reads admitted to any bucket and not yet completed."""
    return sum(bucket.outstanding for bucket in frontend._buckets.values())


def make_fleet(value_bytes: int = 256):
    sim = Simulator()
    cluster = MintCluster(
        "dc0",
        MintConfig(
            group_count=2, nodes_per_group=3, replica_count=3,
            node_capacity_bytes=64 * 1024 * 1024,
        ),
    )
    expect = {}
    for index in range(60):
        key = f"doc-{index:04d}".encode()
        value = f"v-{index:04d}-".encode() * max(1, value_bytes // 8)
        cluster.put(key, 1, value)
        expect[key] = value
    return sim, cluster, expect


def run_clients(sim, frontend, requests):
    """Submit ``(dc, key, version)`` concurrently; returns outcomes."""
    outcomes = {}

    def client(index, dc, key, version):
        try:
            event = frontend.try_submit(dc, key, version)
        except OverloadError:
            outcomes[index] = "shed"
            return
            yield  # pragma: no cover - makes this a generator
        outcomes[index] = yield event

    processes = [
        sim.process(client(index, *request))
        for index, request in enumerate(requests)
    ]
    sim.run(until=sim.all_of(processes))
    frontend.drain()
    return outcomes


def test_concurrent_arrivals_coalesce_into_batches():
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(
        sim, {"dc0": cluster},
        ServingConfig(coalesce_window_s=0.002, max_batch=64),
    )
    keys = sorted(expect)[:20]
    outcomes = run_clients(
        sim, frontend, [("dc0", key, 1) for key in keys]
    )
    assert [outcomes[i] for i in range(20)] == [expect[k] for k in keys]
    # 20 concurrent arrivals over 2 groups: exactly one batch per group,
    # far fewer engine round-trips than requests.
    assert frontend.batches["dc0"] == 2
    assert frontend.batched_keys["dc0"] == 20
    assert outstanding(frontend) == 0


def test_overload_sheds_with_typed_error_and_counters():
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(
        sim, {"dc0": cluster},
        ServingConfig(max_queue_depth_per_replica=2),
    )
    keys = list(sorted(expect)) * 3
    outcomes = run_clients(
        sim, frontend, [("dc0", key, 1) for key in keys]
    )
    shed = sum(1 for value in outcomes.values() if value == "shed")
    served = sum(1 for value in outcomes.values() if isinstance(value, bytes))
    assert shed > 0 and served > 0
    assert shed + served == len(keys)
    assert frontend.shed["dc0"] == shed
    assert frontend.admitted["dc0"] == served
    assert sum(group.shed_gets for group in cluster.groups) == shed
    # every admitted read still returned the right bytes
    for index, value in outcomes.items():
        if isinstance(value, bytes):
            assert value == expect[keys[index]]


def test_admitted_p99_holds_slo_under_shedding():
    sim, cluster, expect = make_fleet()
    config = ServingConfig(
        max_queue_depth_per_replica=2, slo_p99_s=0.050
    )
    frontend = ServingFrontend(sim, {"dc0": cluster}, config)
    keys = list(sorted(expect)) * 5
    run_clients(sim, frontend, [("dc0", key, 1) for key in keys])
    report = frontend.report()
    assert report["fleet"]["shed"] > 0
    assert report["fleet"]["slo_met"]
    assert report["fleet"]["p99_s"] <= config.slo_p99_s


def test_depth_limit_scales_with_healthy_replicas():
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(
        sim, {"dc0": cluster}, ServingConfig(max_queue_depth_per_replica=4)
    )
    group = cluster.groups[0]
    assert frontend.depth_limit(group) == 12
    group.nodes[0].fail()
    assert frontend.depth_limit(group) == 8


def test_missing_key_completes_with_none():
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(sim, {"dc0": cluster})
    outcomes = run_clients(sim, frontend, [("dc0", b"absent", 1)])
    assert outcomes[0] is None
    assert frontend.not_found["dc0"] == 1


def test_all_replicas_down_reports_errors_not_crash():
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(sim, {"dc0": cluster})
    for node in cluster.all_nodes:
        node.fail()
    key = sorted(expect)[0]
    outcomes = run_clients(sim, frontend, [("dc0", key, 1)])
    assert outcomes[0] is None
    assert frontend.errors["dc0"] == 1
    assert frontend.not_found["dc0"] == 0  # an errored read is not a miss


def test_corrupt_replica_fails_over_instead_of_killing_the_flusher(
    corrupt_frame,
):
    """One replica's frame fails its CRC; two replicas hold good bytes.

    On the parent the ``CorruptionError`` escaped ``sim.run``, the
    flusher died, and the six admitted requests stayed outstanding
    forever (admission depth leaked).
    """
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(sim, {"dc0": cluster})
    keys = sorted(expect)[:6]
    for key in keys:
        group = cluster.group_for(key)
        corrupt_frame(group.read_order(key, {})[0], key)
    outcomes = run_clients(sim, frontend, [("dc0", key, 1) for key in keys])
    assert [outcomes[i] for i in range(6)] == [expect[key] for key in keys]
    assert outstanding(frontend) == 0
    # every bucket's flusher is alive and idle, waiting to be woken
    assert all(
        bucket.wake is not None for bucket in frontend._buckets.values()
    )
    assert frontend.errors["dc0"] == 0 and frontend.not_found["dc0"] == 0
    stats = cluster.stats()
    corrupt = sum(stats["corrupt_gets_per_node"].values())
    assert corrupt >= 1
    assert stats["failover_gets"] >= 1
    assert "corrupt_gets" not in stats  # scalars are hashed into sim_digest


def test_every_copy_corrupt_completes_the_batch_as_errors(corrupt_frame):
    """Whatever ``multi_get`` still raises, the batch's events complete,
    counted in ``errors``, and the admission depth comes back."""
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(sim, {"dc0": cluster})
    bad = sorted(expect)[0]
    group = cluster.group_for(bad)
    for node in group.nodes:
        corrupt_frame(node, bad)
    batch = [key for key in sorted(expect) if cluster.group_for(key) is group]
    outcomes = run_clients(
        sim, frontend, [("dc0", key, 1) for key in batch[:4]]
    )
    assert bad in batch[:4]
    assert list(outcomes.values()) == [None] * 4
    assert frontend.errors["dc0"] == 4
    assert frontend.not_found["dc0"] == 0
    assert outstanding(frontend) == 0
    # the flusher is not gone for good: the next request is served
    good = batch[1]
    assert run_clients(sim, frontend, [("dc0", good, 1)])[0] == expect[good]


def test_latency_grows_with_coalescing_window():
    def p50(window_s):
        sim, cluster, expect = make_fleet()
        frontend = ServingFrontend(
            sim, {"dc0": cluster}, ServingConfig(coalesce_window_s=window_s)
        )
        run_clients(
            sim, frontend, [("dc0", key, 1) for key in sorted(expect)[:10]]
        )
        return frontend.latency["dc0"].percentile(50.0)

    assert p50(0.010) > p50(0.0)
    assert p50(0.010) >= 0.010  # the window is a latency floor


def test_register_metrics_exposes_serving_family():
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(sim, {"dc0": cluster})
    registry = MetricsRegistry()
    frontend.register_metrics(registry)
    run_clients(
        sim, frontend, [("dc0", key, 1) for key in sorted(expect)[:6]]
    )
    snapshot = dict(registry.snapshot().values)
    assert snapshot["serving.dc0.requests"] == 6
    assert snapshot["serving.dc0.admitted"] == 6
    assert snapshot["serving.dc0.shed"] == 0
    assert snapshot["serving.dc0.latency_p99_s"] > 0.0


def test_sequential_requests_after_drain_reuse_bucket():
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(sim, {"dc0": cluster})
    key = sorted(expect)[0]
    first = run_clients(sim, frontend, [("dc0", key, 1)])
    second = run_clients(sim, frontend, [("dc0", key, 1)])
    assert first[0] == second[0] == expect[key]
    assert frontend.batches["dc0"] == 2


# ----------------------------------------------------------------------
# Host-cost pins of the read descent: counts that repeat exactly
# ----------------------------------------------------------------------
READS = 2000
#: kernel events of the run below (3.464 per admitted read), with one
#: long-lived flusher per bucket
KERNEL_EVENTS = 6927
# PARENT_KERNEL_EVENTS = 7892: the same run on 02da4c5, where a flusher
# exited each time its bucket drained — 966 flusher processes for 991
# batches.  On 44cc897 the run also built 1,992 ``Record``s and sorted
# 4,975 times.


def test_read_descent_host_cost_pins(monkeypatch):
    """Wall time wanders; these do not.  With every replica up, 2,000
    open-loop reads build no ``Record``, sort nothing in ``multi_get``,
    start one flusher per bucket, and take the kernel events minted
    for this shape (fewer than the parent's)."""
    flushers = []
    process = Simulator.process

    def counting_process(sim, generator):
        if generator.__qualname__ == "ServingFrontend._flush":
            flushers.append(generator)
        return process(sim, generator)

    monkeypatch.setattr(Simulator, "process", counting_process)
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(sim, {"dc0": cluster})
    rng = random.Random(2019)
    keys = sorted(expect)
    wrong = []

    def client():
        for _ in range(READS):
            yield rng.expovariate(1000.0)
            key = keys[min(len(keys) - 1, int(len(keys) ** rng.random()) - 1)]
            event = frontend.try_submit("dc0", key, 1)
            event.callbacks.append(
                lambda done, want=expect[key]: done.value == want
                or wrong.append(done.value)
            )

    records_built = []
    monkeypatch.setattr(
        Record, "__post_init__", lambda self: records_built.append(self)
    )
    sorts = []

    def counting_sorted(*args, **kwargs):
        sorts.append(args)
        return sorted(*args, **kwargs)

    # shadows the builtin for the code of mint/group.py only
    monkeypatch.setattr(group_module, "sorted", counting_sorted, raising=False)
    events_before = sim.events_processed
    sim.run(until=sim.process(client()))
    frontend.drain()

    report = frontend.report()["per_dc"]["dc0"]
    assert wrong == []
    assert (report["admitted"], report["shed"]) == (READS, 0)
    assert (report["not_found"], report["errors"]) == (0, 0)
    assert 1.0 < report["mean_batch"] < 4.0  # coalescing, but small batches
    stats = cluster.stats()
    assert (stats["failover_gets"], stats["missing_gets"]) == (0, 0)
    assert stats["batched_gets"] == READS
    # the pins
    assert records_built == []
    assert sorts == []
    assert sim.events_processed - events_before == KERNEL_EVENTS
    assert len(flushers) == len(frontend._buckets) == len(cluster.groups)


def test_drain_ends_where_a_flusher_per_burst_did():
    """Draining mid-stream, while a client keeps submitting, and again
    at the end: the clock equals what a flusher process per burst of
    work produced — wake and idle events land where its start and exit
    events did.  The latency histogram and every node's reads were
    minted there too, then re-minted once when replicas came to be
    ranked by reads served instead of device clocks (the old values are
    in the comments)."""
    sim, cluster, expect = make_fleet()
    frontend = ServingFrontend(sim, {"dc0": cluster})
    rng = random.Random(7)
    keys = sorted(expect)
    mid = sim.event()

    def client():
        for index in range(600):
            # bursts of 50 reads, 50 ms of quiet between them
            yield rng.expovariate(2000.0) if index % 50 else 0.05
            frontend.try_submit("dc0", keys[rng.randrange(len(keys))], 1)
            if index == 320:
                mid.succeed()

    done = sim.process(client())
    sim.run(until=mid)
    assert outstanding(frontend) > 0
    frontend.drain()
    assert sim.now == 0.5092258811826933
    assert outstanding(frontend) == 0
    sim.run(until=done)
    frontend.drain()
    assert sim.now == 0.8906871049935282
    hist = frontend.latency["dc0"]
    # device-clock routing: 0.8365405025517609 / 600
    assert (len(hist), hist.mean) == (600, 0.836524702551761 / 600)
    assert hashlib.sha256(
        repr(hist.nonzero_buckets()).encode()
    ).hexdigest() == (
        # device-clock routing: "d2598ac15d8256beb14eebd9fd3b3428"
        # "9b8c1b1ecfed6b798312416be1e107c5"
        "c3e6ab568ad063afbaa55685fed155b23edb91b2fd6c6f2c9fd99a3ccf70faf5"
    )
    # device-clock routing: 94/89/94 and 101/107/115
    assert {node.name: node.gets for node in cluster.all_nodes} == {
        "dc0/g0/n0": 92, "dc0/g0/n1": 93, "dc0/g0/n2": 92,
        "dc0/g1/n0": 108, "dc0/g1/n1": 107, "dc0/g1/n2": 108,
    }
    assert frontend.batches["dc0"] == 219
