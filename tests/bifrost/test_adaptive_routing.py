"""End-to-end adaptive routing: Bifrost detours around congestion."""

import pytest

from repro.bifrost.channels import ORIGIN, TopologyConfig, build_topology
from repro.bifrost.monitor import NetworkMonitor
from repro.bifrost.slices import Slice
from repro.bifrost.transport import BifrostTransport, TransportConfig
from repro.indexing.types import IndexEntry, IndexKind
from repro.simulation.kernel import Simulator


def make_slices(count, nbytes=20_000):
    return [
        Slice.pack(
            f"s{i:03d}", 1, IndexKind.INVERTED,
            [IndexEntry(IndexKind.INVERTED, b"key", bytes([i % 251]) * nbytes)],
        )
        for i in range(count)
    ]


def congested_setup():
    sim = Simulator()
    topology = build_topology(sim, TopologyConfig(backbone_bps=1e6))
    monitor = NetworkMonitor(topology, sample_interval_s=5.0, ewma_alpha=1.0)
    # Saturate the direct origin->north inverted stream with background
    # cross-traffic for a long while.
    direct = topology.stream_link(ORIGIN, "north", "inverted")
    direct.transmit_delay(int(direct.bandwidth_bps / 8 * 500))
    sim.run(until=5.0)
    monitor.sample_now()
    return sim, topology, monitor


def test_detours_taken_under_congestion():
    sim, topology, monitor = congested_setup()
    transport = BifrostTransport(
        topology, monitor, TransportConfig(adaptive_routing=True)
    )
    report = transport.deliver_version(make_slices(6))
    assert report.detoured > 0
    assert report.deliveries == 6 * 6


def test_no_detours_when_routing_disabled():
    sim, topology, monitor = congested_setup()
    transport = BifrostTransport(
        topology, monitor, TransportConfig(adaptive_routing=False)
    )
    report = transport.deliver_version(make_slices(6))
    assert report.detoured == 0


def test_detouring_beats_waiting_out_the_congestion():
    """With the direct channel backed up for minutes, routing around it
    finishes the update dramatically sooner."""

    def run(adaptive):
        sim, topology, monitor = congested_setup()
        transport = BifrostTransport(
            topology, monitor, TransportConfig(adaptive_routing=adaptive)
        )
        report = transport.deliver_version(make_slices(6))
        return report.update_time_s

    assert run(True) < run(False) / 2


def test_idle_network_stays_on_direct_routes():
    sim = Simulator()
    topology = build_topology(sim, TopologyConfig(backbone_bps=1e8))
    monitor = NetworkMonitor(topology)
    transport = BifrostTransport(
        topology, monitor, TransportConfig(adaptive_routing=True)
    )
    report = transport.deliver_version(make_slices(6))
    assert report.detoured == 0
