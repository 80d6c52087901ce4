"""Tests for the P2P (peer-forwarding) distribution mode."""

import pytest

from repro.bifrost.channels import ORIGIN, TopologyConfig, build_topology
from repro.bifrost.slices import Slice
from repro.bifrost.transport import BifrostTransport, TransportConfig
from repro.errors import ConfigError
from repro.indexing.types import IndexEntry, IndexKind


def make_slices(count=6, nbytes=2000, kind=IndexKind.INVERTED):
    return [
        Slice.pack(
            f"s{i}", 1, kind, [IndexEntry(kind, b"key", bytes([i]) * nbytes)]
        )
        for i in range(count)
    ]


@pytest.fixture
def topology(sim):
    return build_topology(sim, TopologyConfig(backbone_bps=1e8))


def test_distribution_mode_validation():
    with pytest.raises(ConfigError):
        TransportConfig(distribution="multicast")


def test_p2p_delivers_to_every_data_center(sim, topology):
    transport = BifrostTransport(
        topology, config=TransportConfig(distribution="p2p")
    )
    arrivals = []
    report = transport.deliver_version(
        make_slices(), on_arrival=lambda dc, s: arrivals.append((dc, s.slice_id))
    )
    assert report.deliveries == 6 * 6  # 6 slices x 6 DCs
    assert len(set(arrivals)) == 36
    assert report.miss_ratio == 0.0


def test_p2p_summary_slices_reach_summary_dcs_only(sim, topology):
    transport = BifrostTransport(
        topology, config=TransportConfig(distribution="p2p")
    )
    arrivals = []
    transport.deliver_version(
        make_slices(count=3, kind=IndexKind.SUMMARY),
        on_arrival=lambda dc, s: arrivals.append(dc),
    )
    expected = {dcs[0] for dcs in topology.summary_dcs.values()}
    assert set(arrivals) == expected


def test_p2p_cuts_origin_bandwidth_to_a_third(sim, topology):
    slices = make_slices(count=9)
    direct = BifrostTransport(
        topology, config=TransportConfig(distribution="origin-fanout")
    )
    direct_report = direct.deliver_version([s.clean_copy() for s in slices])

    sim2_topology = build_topology(sim, TopologyConfig(backbone_bps=1e8))
    p2p = BifrostTransport(
        sim2_topology, config=TransportConfig(distribution="p2p")
    )
    p2p_report = p2p.deliver_version([s.clean_copy() for s in slices])

    assert direct_report.origin_bytes_sent > 0
    # Every slice leaves the origin once instead of three times.
    assert p2p_report.origin_bytes_sent == pytest.approx(
        direct_report.origin_bytes_sent / 3, rel=0.01
    )
    # Total network bytes are comparable (the work moved, not vanished).
    assert p2p_report.bytes_sent == pytest.approx(
        direct_report.bytes_sent, rel=0.1
    )


def test_p2p_seed_rotates_across_slices(sim, topology):
    transport = BifrostTransport(
        topology, config=TransportConfig(distribution="p2p")
    )
    transport.deliver_version(make_slices(count=9))
    # Every origin->region stream link carried some traffic (seeds rotate).
    for region in topology.regions:
        link = topology.stream_link(ORIGIN, region, "inverted")
        assert link.bytes_sent > 0


def test_p2p_retransmits_and_still_delivers(sim, topology):
    transport = BifrostTransport(
        topology,
        config=TransportConfig(
            distribution="p2p", corruption_probability=0.3, seed=5
        ),
    )
    report = transport.deliver_version(make_slices(count=8))
    assert report.retransmissions > 0
    # Every (DC, slice) delivery either lands or is counted lost.
    assert report.deliveries + report.abandoned == 8 * 6
    assert report.abandoned <= 12


def test_p2p_abandoning_the_seed_loses_all_regions(sim, topology):
    transport = BifrostTransport(
        topology,
        config=TransportConfig(
            distribution="p2p",
            corruption_probability=0.98,
            max_retransmits=1,
            seed=2,
        ),
    )
    report = transport.deliver_version(make_slices(count=4))
    assert report.abandoned > 0
    assert report.miss_count >= report.abandoned


def test_p2p_is_less_reliable_under_loss(sim):
    """The paper's verdict: P2P trades reliability for bandwidth — the
    peer hop doubles most slices' corruption exposure."""

    from repro.simulation.kernel import Simulator

    def run(distribution, seed):
        simulator_topology = build_topology(
            Simulator(), TopologyConfig(backbone_bps=1e8)
        )
        transport = BifrostTransport(
            simulator_topology,
            config=TransportConfig(
                distribution=distribution,
                corruption_probability=0.25,
                max_retransmits=0,  # no second chances: raw exposure
                seed=seed,
            ),
        )
        report = transport.deliver_version(make_slices(count=40))
        total = report.deliveries + report.abandoned
        return report.abandoned / total if total else 0.0

    direct_loss = sum(run("origin-fanout", s) for s in range(5)) / 5
    p2p_loss = sum(run("p2p", s) for s in range(5)) / 5
    assert p2p_loss > direct_loss
