"""System tests for the update-cycle engine.

``run_pipelined_cycles`` is the one definition of a cycle; it overlaps
version N+1's generation stages with version N's delivery tail, and
``run_update_cycle`` is a train of one.  These tests pin the contract:
one train of N must be byte-identical to N trains of one (the serial
month) — same versions, same dedup ratios, same keys, same fleet state —
only faster; every report's stage summary must fold only its own cycle's
spans even while cycles interleave on the shared kernel; a train of one
produces exactly what the deleted serial body did; and a train that
fails ends clean.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.bifrost.channels import TopologyConfig
from repro.core.config import DirectLoadConfig
from repro.core.directload import DirectLoad
from repro.errors import ReproError
from repro.mint.cluster import MintConfig
from repro.workloads.bandwidth import fleet_digest

SPECS = [None, 0.4, 0.25, 0.5]  # bootstrap + three daily updates


def small_config(**overrides):
    defaults = dict(
        doc_count=40,
        vocabulary_size=300,
        doc_length=16,
        summary_value_bytes=512,
        forward_value_bytes=128,
        slice_bytes=32 * 1024,
        generation_window_s=5.0,
        # Generation-window-bound: the tail past the window is short, so
        # the overlap is where the makespan shrinks.
        topology=TopologyConfig(backbone_bps=2_000_000.0),
        mint=MintConfig(
            group_count=1, nodes_per_group=3, node_capacity_bytes=48 * 1024 * 1024
        ),
    )
    defaults.update(overrides)
    return DirectLoadConfig(**defaults)


def final_state(system):
    state = {}
    for dc, cluster in sorted(system.clusters.items()):
        state[dc] = {
            version: sorted(set(keys))
            for version, keys in cluster.version_keys.items()
        }
    return state


@pytest.fixture(scope="module")
def pair():
    serial = DirectLoad(small_config())
    serial_started = serial.sim.now
    serial_reports = [serial.run_update_cycle()]
    for rate in SPECS[1:]:
        serial_reports.append(serial.run_update_cycle(mutation_rate=rate))
    serial_makespan = serial.sim.now - serial_started

    pipelined = DirectLoad(small_config())
    pipelined_reports = pipelined.run_pipelined_cycles(SPECS)
    return serial, serial_reports, serial_makespan, pipelined, pipelined_reports


def test_empty_specs_is_a_no_op():
    system = DirectLoad(small_config())
    assert system.run_pipelined_cycles([]) == []
    assert system.last_pipelined_makespan_s == 0.0


def test_pipelined_reports_match_serial(pair):
    _, serial_reports, _, _, pipelined_reports = pair
    assert [r.version for r in pipelined_reports] == [1, 2, 3, 4]
    for serial_report, pipe_report in zip(serial_reports, pipelined_reports):
        assert pipe_report.version == serial_report.version
        assert pipe_report.dedup_ratio == pytest.approx(serial_report.dedup_ratio)
        assert pipe_report.keys_delivered == serial_report.keys_delivered
        assert pipe_report.promoted == serial_report.promoted
        assert pipe_report.evicted_versions == serial_report.evicted_versions


def test_pipelined_fleet_state_matches_serial(pair):
    serial, _, _, pipelined, _ = pair
    assert final_state(pipelined) == final_state(serial)
    assert pipelined.fleet_stats()["stale_slices_dropped"] == 0


def test_pipelined_makespan_beats_serial(pair):
    _, serial_reports, serial_makespan, pipelined, _ = pair
    serial_sum = sum(r.update_time_s for r in serial_reports)
    assert serial_makespan == pytest.approx(serial_sum, rel=1e-9)
    assert pipelined.last_pipelined_makespan_s < serial_sum


def test_cycles_actually_overlap(pair):
    """Version N+1's build starts before version N's delivery ends."""
    _, _, _, pipelined, _ = pair
    spans = {}
    for span in pipelined.tracer.spans:
        if span.name == "cycle":
            spans[span.attrs["version"]] = span
    assert spans[2].start_s < spans[1].end_s
    assert spans[3].start_s < spans[2].end_s
    # ...but versions still finalize in order.
    assert spans[1].end_s <= spans[2].end_s <= spans[3].end_s


def test_stage_summaries_stay_per_version(pair):
    _, _, _, _, pipelined_reports = pair
    for report in pipelined_reports:
        rows = {row["stage"]: row for row in report.stages}
        # The generation stages appear exactly once per cycle.
        for stage in ("build", "dedup", "slice", "schedule", "transmit"):
            assert rows[stage]["count"] == 1, (report.version, stage)
        # The delivery fan-out belongs to this cycle's summary, not a
        # neighbour's: transmit wall time is this version's update time.
        assert rows["transmit"]["total_s"] == pytest.approx(
            report.update_time_s, rel=0.05
        )
        assert "gray_release" in rows and "activate" in rows


def test_reports_append_in_version_order(pair):
    _, _, _, pipelined, pipelined_reports = pair
    assert pipelined.reports == pipelined_reports


def test_queries_serve_active_version_after_pipelined_month(pair):
    _, _, _, pipelined, pipelined_reports = pair
    assert pipelined.versions.active_version == pipelined_reports[-1].version


# ----------------------------------------------------------------------
# A train of one is the serial cycle.  The values below were recorded at
# the last commit that still had a separate serial body (7d5bb08):
# bootstrap plus one 0.4 update through ``run_update_cycle``.
SERIAL_PINS = {
    # name -> (config, sim.now, sha256 of the two reports incl. their
    # stage rows, fleet_digest)
    "default": (
        DirectLoadConfig(),
        1200.1007318783998,
        "9483438a4145173643dc5eadddb4771caebe5184a0ab4c14420229106349479d",
        "4009638767ffec9e7a2341681213e6b44250c722eb7f8b4e8f1c99515055bee7",
    ),
    "one-slice-per-kind": (
        small_config(doc_count=3, slice_bytes=4 * 1024 * 1024),
        10.095464190400003,
        "57143f58977412b05de94dc4cd9e2e37ce8fd78a3ea5765dca299a21ccac9251",
        "8dc1e3beb90016fde9751c793808f02e64819c5c2d4ce5794e55348408366b9f",
    ),
    "no-window": (
        small_config(generation_window_s=0.0),
        0.4202205903999999,
        "b98f62f58a2103ec780b6237cd93f106bf1b284a02a08dc70a38f849949d2991",
        "bbb843bfc5ba03a907b9748c2424c07bae48dd98d6f85133e159299be62da904",
    ),
}


@pytest.mark.parametrize("name", sorted(SERIAL_PINS))
def test_train_of_one_is_the_serial_cycle(name):
    config, now, reports_digest, state_digest = SERIAL_PINS[name]
    system = DirectLoad(config)
    reports = [system.run_update_cycle(), system.run_update_cycle(0.4)]
    assert system.sim.now == now
    blob = json.dumps(
        [dataclasses.asdict(report) for report in reports], sort_keys=True
    )
    assert hashlib.sha256(blob.encode()).hexdigest() == reports_digest
    assert fleet_digest(system) == state_digest
    # A train of one keeps its spans on ``cycle:0``; names are unchanged.
    cycles = [span for span in system.tracer.spans if span.name == "cycle"]
    assert [span.track for span in cycles] == ["cycle:0", "cycle:0"]


# ----------------------------------------------------------------------
# A train that fails ends clean.
def break_ingest(monkeypatch, system, version):
    """Make one cluster's store raise for ``version`` until
    ``monkeypatch.undo()``."""
    cluster = system.clusters[sorted(system.clusters)[2]]
    real_put_batch = cluster.put_batch

    def put_batch(items, *args, **kwargs):
        if items[0][1] == version:
            raise RuntimeError(f"boom v{version}")
        return real_put_batch(items, *args, **kwargs)

    monkeypatch.setattr(cluster, "put_batch", put_batch)


def served(system, version):
    """What every data center serves for every key of ``version``."""
    values = {}
    for dc, cluster in sorted(system.clusters.items()):
        for key in sorted(set(cluster.version_keys.get(version, []))):
            try:
                values[dc, key] = cluster.get(key, version)
            except ReproError as error:
                values[dc, key] = repr(error)
    return values


@pytest.mark.parametrize("wire", [False, True], ids=["plain", "wire"])
@pytest.mark.parametrize("trains", ["one-train-of-three", "three-trains-of-one"])
def test_failed_train_ends_clean(trains, wire, monkeypatch):
    system = DirectLoad(small_config(wire_encoding=wire))
    system.run_update_cycle()
    break_ingest(monkeypatch, system, 3)
    if trains == "one-train-of-three":
        with pytest.raises(RuntimeError, match="boom v3"):
            system.run_pipelined_cycles([0.3, 0.3, 0.3])
        monkeypatch.undo()
        # Version 2 was ahead of the failure and finished; version 4 was
        # already built behind it and is cancelled with it.
        survivors, next_version = [1, 2], 5
    else:
        system.run_update_cycle(0.3)
        with pytest.raises(RuntimeError, match="boom v3"):
            system.run_update_cycle(0.3)
        monkeypatch.undo()
        # ``run_update_cycle`` after a failed ``run_update_cycle``.
        assert system.run_update_cycle(0.3).version == 4
        survivors, next_version = [1, 2, 4], 5
    assert system.versions.live_versions == survivors
    assert [report.version for report in system.reports] == survivors
    assert system.fleet_stats()["stale_slices_dropped"] > 0

    # No process of the failed train is alive: driven on with the fault
    # gone, the kernel raises nothing, installs nothing, stores nothing.
    before = final_state(system)
    system.sim.run(until=system.sim.now + 10 * 5.0)
    assert system.versions.live_versions == survivors
    assert final_state(system) == before
    assert all(set(held) == set(survivors) for held in before.values())

    # The next train delivers exactly its own versions, in order...
    reports = system.run_pipelined_cycles([0.3, 0.3])
    assert [r.version for r in reports] == [next_version, next_version + 1]
    assert system.versions.live_versions == (
        survivors + [next_version, next_version + 1]
    )[-4:]
    # ...and serves what a fleet that never failed serves: the corpus
    # advanced the same five times, and nothing deduplicated or
    # delta-encoded against the dead versions.
    twin = DirectLoad(small_config(wire_encoding=wire))
    twin.run_pipelined_cycles([None] + [0.3] * 5)
    for version in (next_version, next_version + 1):
        assert served(system, version) == served(twin, version)
