"""Monitor route-time arithmetic and EWMA smoothing."""

import pytest

from repro.bifrost.channels import ORIGIN, TopologyConfig, build_topology
from repro.bifrost.monitor import NetworkMonitor
from repro.simulation.kernel import Simulator


def ewma(monitor, pair):
    """The monitor's smoothed utilization belief for one backbone link."""
    return monitor._estimates[pair].utilization_ewma


@pytest.fixture
def setup():
    sim = Simulator()
    topology = build_topology(sim, TopologyConfig(backbone_bps=1e6))
    return sim, topology


def test_idle_route_time_is_transfer_plus_latency(setup):
    sim, topology = setup
    monitor = NetworkMonitor(topology)
    nbytes = 125_000  # one second at 1 Mbit/s
    estimate = monitor.estimate_route_time([ORIGIN, "north"], nbytes, "inverted")
    # 60% reservation: 0.6 Mbit/s effective for the inverted stream.
    expected = nbytes * 8 / (1e6 * 0.6) + topology.config.backbone_latency_s
    assert estimate == pytest.approx(expected, rel=0.01)


def test_two_hop_route_sums_hops(setup):
    sim, topology = setup
    monitor = NetworkMonitor(topology)
    one_hop = monitor.estimate_route_time([ORIGIN, "north"], 50_000, "summary")
    two_hop = monitor.estimate_route_time(
        [ORIGIN, "east", "north"], 50_000, "summary"
    )
    assert two_hop == pytest.approx(2 * one_hop, rel=0.01)


def test_queueing_delay_included(setup):
    sim, topology = setup
    monitor = NetworkMonitor(topology)
    sublink = topology.stream_link(ORIGIN, "north", "summary")
    sublink.transmit_delay(int(sublink.bandwidth_bps / 8 * 10))  # 10s backlog
    estimate = monitor.estimate_route_time([ORIGIN, "north"], 1000, "summary")
    assert estimate > 10.0


def test_ewma_smooths_samples(setup):
    sim, topology = setup
    monitor = NetworkMonitor(topology, sample_interval_s=10.0, ewma_alpha=0.5)
    link = topology.backbone[(ORIGIN, "north")]
    # Saturate one window, sample, then an idle window, sample.
    link.transmit_delay(int(link.bandwidth_bps / 8 * 10))
    sim.run(until=10.0)
    monitor.sample_now()
    busy = ewma(monitor, (ORIGIN, "north"))
    # Advance past the 60 s stat bucket so the next window is truly idle.
    sim.run(until=70.0)
    monitor.sample_now()
    after_idle = ewma(monitor, (ORIGIN, "north"))
    assert 0.0 < after_idle < busy  # decayed but not forgotten


def test_ewma_converges_toward_step_change(setup):
    """A utilization step is absorbed geometrically, factor (1 - alpha)."""
    sim, topology = setup
    alpha = 0.3
    monitor = NetworkMonitor(topology, sample_interval_s=60.0, ewma_alpha=alpha)
    link = topology.backbone[(ORIGIN, "north")]
    monitor.sample_now()  # idle seed
    assert ewma(monitor, (ORIGIN, "north")) == 0.0
    # Step: the link runs saturated from now on; sample once per window.
    window_bytes = int(link.bandwidth_bps / 8 * 60)
    gaps = []
    for _ in range(8):
        link.transmit_delay(window_bytes)
        sim.run(until=sim.now + 60.0)
        monitor.sample_now()
        gaps.append(1.0 - ewma(monitor, (ORIGIN, "north")))
    for before, after in zip(gaps, gaps[1:]):
        assert after < before  # monotone approach to the new level
        assert after == pytest.approx(before * (1.0 - alpha), rel=0.05)
    assert gaps[-1] < 0.1  # converged close to saturation


def test_route_scoring_prefers_faster_predicted_relay(setup):
    """With the direct backbone saturated, the relay detour must win."""
    sim, topology = setup
    monitor = NetworkMonitor(topology, sample_interval_s=60.0, ewma_alpha=1.0)
    nbytes = 50_000
    # Idle: every path predicts alike, ties favour the direct route.
    assert monitor.choose_route("north", nbytes, "summary") == [ORIGIN, "north"]
    direct = topology.backbone[(ORIGIN, "north")]
    # one window's worth
    direct.transmit_delay(int(direct.bandwidth_bps / 8 * 60))
    sim.run(until=60.0)
    monitor.sample_now()  # alpha=1.0: belief snaps to the observation
    hops = monitor.choose_route("north", nbytes, "summary")
    assert len(hops) == 3 and hops[0] == ORIGIN and hops[-1] == "north"
    assert monitor.estimate_route_time(
        hops, nbytes, "summary"
    ) < monitor.estimate_route_time([ORIGIN, "north"], nbytes, "summary")


def test_monitor_metrics_registered(setup):
    from repro.obs import MetricsRegistry

    sim, topology = setup
    monitor = NetworkMonitor(topology, sample_interval_s=60.0, ewma_alpha=1.0)
    registry = MetricsRegistry()
    monitor.register_metrics(registry)
    name = f"bifrost.monitor.{ORIGIN}-north.utilization_ewma"
    assert registry.collect()[name] == 0.0
    link = topology.backbone[(ORIGIN, "north")]
    link.transmit_delay(int(link.bandwidth_bps / 8 * 60))
    sim.run(until=60.0)
    monitor.sample_now()
    values = registry.collect()
    assert values[name] > 0.9  # live view of the belief
    assert values[f"bifrost.monitor.{ORIGIN}-north.samples"] == 1.0


def test_sampling_loop_runs_periodically(setup):
    sim, topology = setup
    monitor = NetworkMonitor(topology, sample_interval_s=5.0)
    monitor.start()
    monitor.start()  # idempotent
    link = topology.backbone[(ORIGIN, "east")]
    link.transmit_delay(int(link.bandwidth_bps / 8 * 4))
    sim.run(until=6.0)
    assert ewma(monitor, (ORIGIN, "east")) > 0.0
