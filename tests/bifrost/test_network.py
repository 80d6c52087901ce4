"""Unit tests for topology, monitor, scheduler, and transport."""

import pytest

from repro.bifrost.channels import (
    ORIGIN,
    TopologyConfig,
    build_topology,
    stream_of,
)
from repro.bifrost.monitor import NetworkMonitor
from repro.bifrost.scheduler import StreamScheduler
from repro.bifrost.slices import Slice
from repro.bifrost.transport import BifrostTransport, TransportConfig
from repro.errors import ConfigError, RoutingError, TransmissionError
from repro.indexing.types import IndexEntry, IndexKind
from repro.simulation.kernel import Simulator


def make_slice(slice_id="s1", kind=IndexKind.FORWARD, nbytes=1000, version=1):
    entries = [IndexEntry(kind, b"key", b"v" * nbytes)]
    return Slice.pack(slice_id, version, kind, entries)


@pytest.fixture
def topology(sim):
    return build_topology(sim, TopologyConfig(backbone_bps=1e8))


# ------------------------------------------------------------------ topology
def test_topology_shape(topology):
    assert len(topology.regions) == 3
    assert len(topology.all_data_centers()) == 6
    # Backbone links: origin<->3 regions + 3 region pairs, both ways.
    assert len(topology.backbone) == 4 * 3
    for region in topology.regions:
        assert len(topology.summary_dcs[region]) == 1


def test_stream_reservation_split(topology):
    link = topology.stream_link(ORIGIN, "north", "summary")
    assert link.bandwidth_bps == pytest.approx(1e8 * 0.4)
    link = topology.stream_link(ORIGIN, "north", "inverted")
    assert link.bandwidth_bps == pytest.approx(1e8 * 0.6)
    with pytest.raises(RoutingError):
        topology.stream_link(ORIGIN, "north", "mystery")


def test_stream_of_kinds():
    assert stream_of(IndexKind.SUMMARY) == "summary"
    assert stream_of(IndexKind.INVERTED) == "inverted"
    assert stream_of(IndexKind.FORWARD) == "inverted"  # travels combined


def test_routes_direct_plus_detours(topology):
    routes = topology.routes("north")
    assert [ORIGIN, "north"] in routes
    assert [ORIGIN, "east", "north"] in routes
    assert [ORIGIN, "south", "north"] in routes
    with pytest.raises(RoutingError):
        topology.routes("mars")


def test_topology_config_validation():
    with pytest.raises(ConfigError):
        TopologyConfig(regions=())
    with pytest.raises(ConfigError):
        TopologyConfig(dcs_per_region=0)
    with pytest.raises(ConfigError):
        TopologyConfig(summary_dcs_per_region=5, dcs_per_region=2)


# ------------------------------------------------------------------- monitor
def test_monitor_prediction_reflects_traffic(sim, topology):
    monitor = NetworkMonitor(topology, sample_interval_s=10.0)
    idle = monitor.predicted_available_bps(ORIGIN, "north")
    assert idle == pytest.approx(1e8)
    # Saturate the link for a while, then sample.
    link = topology.backbone[(ORIGIN, "north")]
    link.transmit_delay(int(1e8 / 8 * 50))  # 50 seconds of traffic
    sim.run(until=10.0)
    monitor.sample_now()
    busy = monitor.predicted_available_bps(ORIGIN, "north")
    assert busy < idle


def test_monitor_chooses_detour_around_congestion(sim, topology):
    monitor = NetworkMonitor(topology, sample_interval_s=10.0, ewma_alpha=1.0)
    # Congest the direct origin->north summary stream heavily.
    direct = topology.stream_link(ORIGIN, "north", "summary")
    direct.transmit_delay(int(direct.bandwidth_bps / 8 * 500))
    sim.run(until=10.0)
    monitor.sample_now()
    hops = monitor.choose_route("north", nbytes=1_000_000, stream="summary")
    assert len(hops) == 3  # went via another region
    assert hops[0] == ORIGIN and hops[-1] == "north"


def test_monitor_prefers_direct_when_idle(sim, topology):
    monitor = NetworkMonitor(topology)
    hops = monitor.choose_route("east", nbytes=1_000_000, stream="inverted")
    assert hops == [ORIGIN, "east"]


def test_monitor_validation(topology):
    with pytest.raises(ConfigError):
        NetworkMonitor(topology, sample_interval_s=0)
    with pytest.raises(ConfigError):
        NetworkMonitor(topology, ewma_alpha=0)


# ----------------------------------------------------------------- scheduler
def test_scheduler_spreads_slices_over_window():
    scheduler = StreamScheduler(generation_window_s=100.0)
    slices = [make_slice(f"s{i}") for i in range(5)]
    scheduled = scheduler.schedule(slices, start_time=50.0)
    times = [s.available_at for s in scheduled]
    assert times[0] == 50.0
    assert times[-1] == 150.0
    assert times == sorted(times)


def test_scheduler_streams_share_the_window():
    scheduler = StreamScheduler(generation_window_s=60.0)
    slices = [make_slice(f"sum{i}", kind=IndexKind.SUMMARY) for i in range(3)]
    slices += [make_slice(f"inv{i}", kind=IndexKind.INVERTED) for i in range(3)]
    scheduled = scheduler.schedule(slices)
    summary_last = max(
        s.available_at for s in scheduled if s.kind is IndexKind.SUMMARY
    )
    inverted_last = max(
        s.available_at for s in scheduled if s.kind is IndexKind.INVERTED
    )
    assert summary_last == inverted_last == 60.0


def test_scheduler_single_slice_at_start():
    scheduler = StreamScheduler(generation_window_s=60.0)
    scheduled = scheduler.schedule([make_slice("only")], start_time=5.0)
    assert scheduled[0].available_at == 5.0


def test_scheduler_validation():
    with pytest.raises(ConfigError):
        StreamScheduler(generation_window_s=-1)


# ----------------------------------------------------------------- transport
def test_deliver_version_rejects_empty_slice_list(sim, topology):
    # An empty delivery used to silently report version 0 with zero
    # deliveries; it now fails loudly — the caller forgot to slice.
    transport = BifrostTransport(topology)
    with pytest.raises(TransmissionError):
        transport.deliver_version([])


def test_deliver_version_run_false_defers_to_caller(sim, topology):
    transport = BifrostTransport(topology)
    arrivals = []
    report = transport.deliver_version(
        [make_slice("s1", kind=IndexKind.INVERTED)],
        on_arrival=lambda dc, s: arrivals.append(dc),
        run=False,
    )
    # Nothing moved yet: the caller owns the clock.
    assert arrivals == []
    assert report.processes
    sim.run(until=sim.all_of(report.processes))
    assert sorted(arrivals) == sorted(topology.all_data_centers())
    assert report.deliveries == 6


def test_transport_delivers_to_every_data_center(sim, topology):
    transport = BifrostTransport(topology, config=TransportConfig())
    arrivals = []
    report = transport.deliver_version(
        [make_slice("s1", kind=IndexKind.INVERTED)],
        on_arrival=lambda dc, s: arrivals.append(dc),
    )
    assert sorted(arrivals) == sorted(topology.all_data_centers())
    assert report.deliveries == 6
    assert report.miss_ratio == 0.0
    assert report.bytes_sent > 0


def test_summary_slices_reach_only_summary_dcs(sim, topology):
    transport = BifrostTransport(topology)
    arrivals = []
    transport.deliver_version(
        [make_slice("s1", kind=IndexKind.SUMMARY)],
        on_arrival=lambda dc, s: arrivals.append(dc),
    )
    assert len(arrivals) == 3
    expected = {dcs[0] for dcs in topology.summary_dcs.values()}
    assert set(arrivals) == expected


def test_corruption_triggers_retransmission(sim, topology):
    transport = BifrostTransport(
        topology,
        config=TransportConfig(corruption_probability=0.5, seed=3),
    )
    report = transport.deliver_version(
        [make_slice(f"s{i}") for i in range(10)]
    )
    assert report.retransmissions > 0
    # Every (DC, slice) delivery either lands or is counted lost, and
    # despite corruption (nearly) everything still lands.
    assert report.deliveries + report.abandoned == 6 * 10
    assert report.abandoned <= 6


def test_abandonment_after_max_retransmits(sim, topology):
    transport = BifrostTransport(
        topology,
        config=TransportConfig(
            corruption_probability=0.97, max_retransmits=1, seed=1
        ),
    )
    report = transport.deliver_version([make_slice(f"s{i}") for i in range(5)])
    assert report.abandoned > 0
    assert report.miss_count >= report.abandoned


def test_slow_network_produces_misses(sim):
    # A crawling backbone with a tight lateness threshold.
    topology = build_topology(sim, TopologyConfig(backbone_bps=1e4))
    transport = BifrostTransport(
        topology, config=TransportConfig(late_threshold_s=1.0)
    )
    report = transport.deliver_version([make_slice("s1", nbytes=100_000)])
    assert report.miss_ratio > 0


def test_update_time_measures_last_arrival(sim, topology):
    transport = BifrostTransport(topology)
    slices = [make_slice(f"s{i}", nbytes=50_000) for i in range(4)]
    for index, item in enumerate(slices):
        item.available_at = index * 10.0
    report = transport.deliver_version(slices)
    assert report.update_time_s > 30.0  # last slice only generated at t=30


def test_transport_config_validation():
    with pytest.raises(ConfigError):
        TransportConfig(corruption_probability=1.5)
    with pytest.raises(ConfigError):
        TransportConfig(max_retransmits=-1)
    with pytest.raises(ConfigError):
        TransportConfig(late_threshold_s=0)


def test_relay_slots_serialize_undersized_groups(sim):
    """One relay node per group forces slices through one at a time."""
    from repro.simulation.kernel import Simulator

    def run(relay_nodes):
        simulator = Simulator()
        topology = build_topology(
            simulator,
            TopologyConfig(
                backbone_bps=1e9,
                relay_nodes_per_group=relay_nodes,
                # Slow intra links: fan-out dominates, so relay slots bind.
                intra_bps=1e6,
            ),
        )
        transport = BifrostTransport(topology)
        report = transport.deliver_version(
            [make_slice(f"s{i}", nbytes=50_000) for i in range(8)]
        )
        return report.update_time_s

    # A single slot serializes both DC transfers per slice; a full group
    # overlaps them (the intra links then become the binding resource).
    assert run(relay_nodes=1) > run(relay_nodes=24) * 1.5


def test_relay_slots_do_not_bind_at_paper_scale(sim, topology):
    """With the paper's 20-30 relay nodes, slots are never the
    bottleneck for a typical version's slice count."""
    transport = BifrostTransport(topology)
    report = transport.deliver_version(
        [make_slice(f"s{i}", nbytes=1000) for i in range(10)]
    )
    assert report.deliveries == 10 * 6
    for region in topology.regions:
        assert not topology.relay_slots[region]._waiters
