"""Wire encoding end to end: fewer bytes travel, identical bytes land.

The contract the bandwidth layer must honour everywhere: whatever the
codec does to what *travels*, what every replica *stores* is
byte-identical to the unencoded run — across plain months, pipelined
months (where version N+1 slices overtake version N's), months long
enough to evict and garbage-collect the versions the codec's delta bases
came from, and chaos months where the compressed stream itself gets
corrupted in flight.
"""

import pytest

from repro.bifrost.channels import TopologyConfig
from repro.bifrost.encoding import WireDecoder
from repro.bifrost.transport import TransportConfig
from repro.core.config import DirectLoadConfig
from repro.core.directload import DirectLoad
from repro.mint.cluster import MintConfig, storage_key
from repro.workloads.bandwidth import fleet_digest, month_rates
from repro.workloads.chaos import ChaosConfig, run_chaos

MONTH = [None, 0.4, 0.6, 0.5]

#: bootstrap + 8 changed-value-heavy days: with four live versions kept,
#: five versions are evicted while later ones still delta against them
EVICTING_MONTH = month_rates(8)
#: values large enough that the evicted versions fill a sealed 4 MB AOF
#: segment on the summary-storing nodes, so GC collects it mid-month
GC_SIZED = dict(
    doc_count=60,
    summary_value_bytes=16 * 1024,
    forward_value_bytes=4 * 1024,
    slice_bytes=64 * 1024,
)


def make_system(wire: bool, dedup: bool = True, **overrides) -> DirectLoad:
    settings = dict(
        wire_encoding=wire,
        dedup_enabled=dedup,
        doc_count=40,
        vocabulary_size=250,
        doc_length=16,
        summary_value_bytes=512,
        forward_value_bytes=128,
        slice_bytes=16 * 1024,
        generation_window_s=5.0,
        topology=TopologyConfig(backbone_bps=2_000_000.0),
        mint=MintConfig(
            group_count=1,
            nodes_per_group=3,
            node_capacity_bytes=48 * 1024 * 1024,
        ),
    )
    settings.update(overrides)
    return DirectLoad(DirectLoadConfig(**settings))


def record_builds(system: DirectLoad) -> dict:
    """Version -> the full pre-dedup dataset the build pipeline emitted."""
    built = {}
    build_version = system.pipeline.build_version

    def recording():
        dataset = build_version()
        built[dataset.version] = dataset
        return dataset

    system.pipeline.build_version = recording
    return built


def run_month(
    wire: bool, pipelined: bool, dedup: bool = True, month=MONTH, **overrides
):
    """Run ``month``; returns the system, its reports and what it built."""
    system = make_system(wire, dedup, **overrides)
    built = record_builds(system)
    if pipelined:
        reports = system.run_pipelined_cycles(month)
    else:
        reports = [
            system.run_update_cycle(mutation_rate=rate) for rate in month
        ]
    return system, reports, built


def assert_live_versions_read_back(system: DirectLoad, built: dict) -> None:
    """Every live ``(key, version)`` in every DC is the freshly built bytes."""
    for version in system.versions.live_versions:
        expected = {
            storage_key(kind, entry.key): entry.value
            for kind, entries in built[version].entries.items()
            for entry in entries
        }
        for dc, cluster in system.clusters.items():
            keys = cluster.version_keys[version]
            assert keys
            for key in keys:
                assert cluster.get(key, version) == expected[key], (
                    dc, version, key,
                )


@pytest.mark.parametrize("pipelined", [False, True], ids=["plain", "pipelined"])
def test_wire_month_is_byte_identical_and_smaller(pipelined):
    baseline, base_reports, _ = run_month(wire=False, pipelined=pipelined)
    wired, wire_reports, _ = run_month(wire=True, pipelined=pipelined)
    # Identical delivery accounting, cycle by cycle...
    assert [r.keys_delivered for r in wire_reports] == [
        r.keys_delivered for r in base_reports
    ]
    # ...and byte-identical stored fleet state.
    assert fleet_digest(wired) == fleet_digest(baseline)
    # Yet materially fewer bytes travelled.
    assert (
        wired.transport.total_wire_bytes_sent
        < baseline.transport.total_wire_bytes_sent
    )
    # The logical payload the codec had to reproduce is the accounting
    # twin of the unencoded run's wire bytes.
    assert (
        wired.transport.total_payload_bytes_sent
        > wired.transport.total_wire_bytes_sent
    )
    stats = wired.wire_encoder.stats
    assert stats.compression_ratio < 1.0
    assert stats.bytes_saved > 0


def test_each_slice_is_decoded_once_for_the_fleet(monkeypatch):
    """Every receiving DC gets the same wire stream; it is inflated once,
    each DC still commits it to its own cache, and the shared decode is
    freed once every receiver has it."""
    decodes = []
    decode = WireDecoder._decode

    def counting(self, item):
        decodes.append(item.slice_id)
        return decode(self, item)

    monkeypatch.setattr(WireDecoder, "_decode", counting)
    system, _reports, built = run_month(wire=True, pipelined=False)
    encoded = system.wire_encoder.stats.slices_encoded
    assert len(decodes) == len(set(decodes)) == encoded
    decoders = [cluster.wire_decoder for cluster in system.clusters.values()]
    assert sum(d.stats.slices_decoded for d in decoders) > 2 * encoded
    assert len({id(d.decodes) for d in decoders}) == 1
    assert len(decoders[0].decodes) == 0
    assert_live_versions_read_back(system, built)


@pytest.mark.parametrize("pipelined", [False, True], ids=["plain", "pipelined"])
@pytest.mark.parametrize("dedup", [False, True], ids=["raw", "dedup"])
def test_wire_survives_eviction_and_gc(pipelined, dedup):
    """The codec across version eviction: delta bases outlive the
    versions that carried them, and nothing stored depends on the codec.

    Four arms — raw, dedup, wire, dedup+wire — over a month that evicts
    five versions: the wire arm of each dedup setting must store exactly
    what its unencoded twin stores, and all four must read back the
    bytes the build pipeline produced.
    """
    systems = {}
    for wire in (False, True):
        system, reports, built = run_month(
            wire, pipelined, dedup, EVICTING_MONTH, **GC_SIZED
        )
        evicted = [v for report in reports for v in report.evicted_versions]
        assert len(evicted) == 5
        assert_live_versions_read_back(system, built)
        for cluster in system.clusters.values():
            assert cluster.under_replicated() == []
        systems[wire] = system
    assert fleet_digest(systems[True]) == fleet_digest(systems[False])
    assert (
        systems[True].transport.total_wire_bytes_sent
        < systems[False].transport.total_wire_bytes_sent
    )
    # Eviction really reclaimed space: segments were garbage-collected.
    assert any(
        node.engine.gc_runs > 0
        for cluster in systems[True].clusters.values()
        for node in cluster.all_nodes
    )


def test_wire_encoding_over_p2p_distribution():
    """Wire-encoded slices ride the peer-forwarding fabric, and every DC
    still decodes byte-identical values."""
    system, reports, built = run_month(
        wire=True,
        pipelined=False,
        transport=TransportConfig(distribution="p2p", seed=9),
    )
    assert all(report.promoted for report in reports)
    assert system.wire_encoder.stats.entries_delta > 0
    assert_live_versions_read_back(system, built)


def test_chaos_month_with_wire_encoding_loses_nothing():
    """Fault plans run unchanged over wire-encoded slices."""
    result = run_chaos(
        ChaosConfig(
            plan="single-node-crash",
            cycles=3,
            wire_encoding=True,
            integrity=True,
        )
    )
    data = result.data
    assert data["lost_acknowledged_keys"] == 0
    assert data["verified_keys"] > 0
    assert data["integrity"]["clean"]
    bandwidth = data["bandwidth"]
    assert bandwidth["wire_bytes_sent"] < bandwidth["payload_bytes_sent"]
    assert bandwidth["compression_ratio"] < 1.0


def test_corrupted_compressed_slices_are_caught_and_refetched():
    """The chaos regression the CRC-over-wire design exists for.

    A corruption burst flips bytes in the *compressed* stream; relays
    must catch it (checksum covers what travels), the transport must
    re-fetch pristine copies, and no acknowledged key may be lost or
    stored damaged.
    """
    result = run_chaos(
        ChaosConfig(
            plan="corruption-burst",
            cycles=3,
            wire_encoding=True,
            integrity=True,
        )
    )
    data = result.data
    assert data["faults"]["corruption_bursts"] > 0
    assert data["transport"]["retransmits"] > 0  # damage was detected
    assert data["lost_acknowledged_keys"] == 0
    # Every stored record still leaf-checks and full-hashes clean: the
    # corrupted wire bytes never reached an engine.
    assert data["integrity"]["clean"]
    assert data["integrity"]["divergent_records"] == 0
