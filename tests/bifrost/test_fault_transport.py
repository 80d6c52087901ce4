"""Transport under faults: typed delivery failure, loss accounting in
``bifrost.link.*`` metrics, and relay failover around partitions."""

import pytest

from repro.bifrost.channels import TopologyConfig, build_topology
from repro.bifrost.slices import Slice
from repro.bifrost.transport import BifrostTransport, TransportConfig
from repro.errors import (
    ConfigError,
    DeliveryError,
    LinkPartitionedError,
    TransmissionError,
)
from repro.indexing.types import IndexEntry, IndexKind
from repro.obs.registry import MetricsRegistry
from repro.simulation.kernel import Simulator


def make_slice(slice_id="s1", nbytes=1000, version=1):
    entries = [IndexEntry(IndexKind.FORWARD, b"key", b"v" * nbytes)]
    return Slice.pack(slice_id, version, IndexKind.FORWARD, entries)


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def topology(sim):
    return build_topology(sim, TopologyConfig(backbone_bps=1e8))


def test_delivery_error_is_typed_and_counted(sim, topology):
    transport = BifrostTransport(
        topology,
        config=TransportConfig(
            corruption_probability=0.97, max_retransmits=1, seed=1
        ),
    )
    assert issubclass(DeliveryError, TransmissionError)
    report = transport.deliver_version([make_slice(f"s{i}") for i in range(5)])
    assert report.abandoned > 0
    # Abandonment is no longer a silent drop: each failure names the
    # region, slice, and cause.
    assert len(report.failures) > 0
    for region, slice_id, reason in report.failures:
        assert region in topology.regions
        assert slice_id.startswith("s")
        assert "retransmissions" in reason
    assert transport.total_abandoned == report.abandoned


def test_delivery_errors_surface_in_link_metrics(sim, topology):
    transport = BifrostTransport(
        topology,
        config=TransportConfig(
            corruption_probability=0.97, max_retransmits=1, seed=1
        ),
    )
    registry = MetricsRegistry()
    topology.register_metrics(registry)
    report = transport.deliver_version([make_slice(f"s{i}") for i in range(5)])
    assert report.abandoned > 0
    error_gauges = {
        name: value
        for name, value in registry.collect("bifrost.link").items()
        if name.endswith("delivery_errors")
    }
    assert error_gauges, "no delivery_errors gauges registered"
    # Each copy abandoned for corruption books one error on the sub-link
    # whose relay caught its last damaged arrival.
    assert sum(error_gauges.values()) == len(report.failures)


def test_partitioned_link_raises_when_transmitting(sim, topology):
    topology.partition_link("origin", "north")
    link = topology.backbone[("origin", "north")]

    def send():
        yield link.transmit_delay(1000)

    process = sim.process(send())
    with pytest.raises(LinkPartitionedError):
        sim.run(until=process)
    topology.restore_link("origin", "north")
    done = sim.process(send())
    sim.run(until=done)
    assert done.processed


def test_relay_failover_routes_around_partition(sim, topology):
    transport = BifrostTransport(topology, config=TransportConfig())
    topology.partition_link("origin", "north")
    report = transport.deliver_version([make_slice(f"s{i}") for i in range(3)])
    # Everything still lands — north's slices detoured via a surviving
    # relay group — and the failovers are counted.
    assert report.abandoned == 0
    assert report.deliveries == 3 * 6
    assert report.relay_failovers > 0
    assert transport.total_relay_failovers == report.relay_failovers


def test_unhealable_partition_abandons_with_delivery_error(sim, topology):
    transport = BifrostTransport(
        topology,
        config=TransportConfig(max_reroutes=1, reroute_backoff_s=0.1),
    )
    # Cut every way into north: direct and via the other regions.
    topology.partition_link("origin", "north")
    topology.partition_link("east", "north")
    topology.partition_link("south", "north")
    report = transport.deliver_version([make_slice("s0")])
    assert report.abandoned >= 1
    assert any("north" in reason for _r, _s, reason in report.failures)
    # The other regions' copies were unaffected.
    assert report.deliveries >= 4


def test_transport_config_validates_reroute_knobs():
    with pytest.raises(ConfigError):
        TransportConfig(max_reroutes=-1)
    with pytest.raises(ConfigError):
        TransportConfig(reroute_backoff_s=0.0)
