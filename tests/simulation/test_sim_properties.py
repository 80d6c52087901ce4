"""Property tests on the simulation substrate's conservation laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.kernel import Simulator
from repro.simulation.pipes import Link


@settings(max_examples=40, deadline=None)
@given(
    transfers=st.lists(
        st.integers(min_value=0, max_value=1_000_000), min_size=1, max_size=20
    )
)
def test_property_link_fifo_conserves_bytes_and_order(transfers):
    """Deliveries happen in submission order; every byte is accounted."""
    sim = Simulator()
    link = Link(sim, bandwidth_bps=8e6, latency_s=0.01)
    completions = []

    def sender(sim, link, index, nbytes):
        yield link.transmit_delay(nbytes)
        completions.append((sim.now, index))

    for index, nbytes in enumerate(transfers):
        sim.process(sender(sim, link, index, nbytes))
    sim.run()
    assert link.bytes_sent == sum(transfers)
    assert [index for _t, index in sorted(completions)] == list(
        range(len(transfers))
    )
    # Total elapsed >= pure serialization time of all bytes.
    assert sim.now >= sum(transfers) * 8 / 8e6


@settings(max_examples=40, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
def test_property_clock_is_monotone_over_any_timeout_set(delays):
    sim = Simulator()
    observed = []

    def waiter(sim, delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    for delay in delays:
        sim.process(waiter(sim, delay))
    sim.run()
    assert observed == sorted(observed)
    assert sim.now == pytest.approx(max(delays))


@settings(max_examples=30, deadline=None)
@given(
    traffic=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
            st.integers(min_value=1, max_value=100_000),
        ),
        max_size=15,
    )
)
def test_property_utilization_bounded(traffic):
    """Utilization is always within [0, 1] no matter the traffic mix."""
    sim = Simulator()
    link = Link(sim, bandwidth_bps=1e6, stat_bucket_s=10.0)

    def sender(sim, link, start, nbytes):
        yield sim.timeout(start)
        yield link.transmit_delay(nbytes)

    for start, nbytes in traffic:
        sim.process(sender(sim, link, start, nbytes))
    sim.run()
    for window in (5.0, 10.0, 60.0):
        assert 0.0 <= link.utilization(window) <= 1.0
