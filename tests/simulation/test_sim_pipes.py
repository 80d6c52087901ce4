"""Unit tests for bandwidth links."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.simulation.pipes import Link


def test_link_validation(sim):
    with pytest.raises(ConfigError):
        Link(sim, bandwidth_bps=0)
    with pytest.raises(ConfigError):
        Link(sim, bandwidth_bps=1e6, latency_s=-1)
    with pytest.raises(ConfigError):
        Link(sim, bandwidth_bps=1e6, stat_bucket_s=0)


def test_transfer_time_is_bytes_over_bandwidth_plus_latency(sim):
    link = Link(sim, bandwidth_bps=8e6, latency_s=0.5)  # 1 MB/s

    def sender(sim, link):
        yield link.transmit_delay(1_000_000)
        return sim.now

    process = sim.process(sender(sim, link))
    sim.run()
    assert process.value == pytest.approx(1.0 + 0.5)


def test_transfers_serialize_fifo(sim):
    link = Link(sim, bandwidth_bps=8e6)  # 1 MB/s
    arrivals = []

    def sender(sim, link, name, nbytes):
        yield link.transmit_delay(nbytes)
        arrivals.append((name, sim.now))

    sim.process(sender(sim, link, "a", 1_000_000))
    sim.process(sender(sim, link, "b", 1_000_000))
    sim.run()
    assert arrivals == [
        ("a", pytest.approx(1.0)),
        ("b", pytest.approx(2.0)),
    ]


def test_negative_bytes_rejected(sim):
    link = Link(sim, bandwidth_bps=1e6)
    with pytest.raises(SimulationError):
        link.transmit_delay(-1)


def test_zero_byte_transfer_takes_only_latency(sim):
    link = Link(sim, bandwidth_bps=1e6, latency_s=0.25)

    def sender(sim, link):
        yield link.transmit_delay(0)
        return sim.now

    process = sim.process(sender(sim, link))
    sim.run()
    assert process.value == pytest.approx(0.25)


def test_queueing_delay_reflects_backlog(sim):
    link = Link(sim, bandwidth_bps=8e6)
    assert link.queueing_delay() == 0.0
    link.transmit_delay(2_000_000)  # 2 seconds of serialization
    assert link.queueing_delay() == pytest.approx(2.0)



def test_utilization_tracks_traffic(sim):
    link = Link(sim, bandwidth_bps=8e6, stat_bucket_s=10.0)
    # 5 seconds' worth of bytes in a 10-second bucket => ~50% utilization.
    link.transmit_delay(5_000_000)
    sim.run()
    assert 0.4 <= link.utilization(10.0) <= 0.6


def test_idle_link_has_zero_utilization(sim):
    link = Link(sim, bandwidth_bps=1e6)
    assert link.utilization() == 0.0


def test_reserve_splits_bandwidth(sim):
    link = Link(sim, bandwidth_bps=10e6, latency_s=0.0)
    sublinks = link.reserve({"summary": 0.4, "inverted": 0.6})
    assert sublinks["summary"].bandwidth_bps == pytest.approx(4e6)
    assert sublinks["inverted"].bandwidth_bps == pytest.approx(6e6)


def test_reserve_rejects_oversubscription(sim):
    link = Link(sim, bandwidth_bps=1e6)
    with pytest.raises(ConfigError):
        link.reserve({"a": 0.7, "b": 0.7})
    with pytest.raises(ConfigError):
        link.reserve({"a": -0.1})


def test_reserved_streams_do_not_share_bandwidth(sim):
    link = Link(sim, bandwidth_bps=8e6)
    sublinks = link.reserve({"a": 0.5, "b": 0.5})
    arrivals = {}

    def sender(sim, sublink, name):
        yield sublink.transmit_delay(1_000_000)
        arrivals[name] = sim.now

    sim.process(sender(sim, sublinks["a"], "a"))
    sim.process(sender(sim, sublinks["b"], "b"))
    sim.run()
    # Each gets 0.5 MB/s: both finish at 2s, concurrently (no serialization
    # across streams).
    assert arrivals["a"] == pytest.approx(2.0)
    assert arrivals["b"] == pytest.approx(2.0)


def test_byte_counters(sim):
    link = Link(sim, bandwidth_bps=1e6)
    link.transmit_delay(100)
    link.transmit_delay(200)
    assert link.bytes_sent == 300
    assert link.transfer_count == 2
