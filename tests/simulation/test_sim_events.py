"""Unit tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.simulation.events import AllOf, Event, Timeout
from repro.simulation.kernel import Simulator


def test_event_starts_untriggered(sim):
    event = sim.event()
    assert not event.triggered
    assert not event.processed
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_succeed_carries_value(sim):
    event = sim.event()
    event.succeed(42)
    assert event.triggered
    assert event.value == 42


def test_event_cannot_trigger_twice(sim):
    event = sim.event()
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()
    with pytest.raises(SimulationError):
        event.fail(RuntimeError("nope"))


def test_event_fail_requires_exception(sim):
    event = sim.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_timeout_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_timeout_cannot_be_triggered_manually(sim):
    timeout = sim.timeout(1.0)
    with pytest.raises(SimulationError):
        timeout.succeed()
    with pytest.raises(SimulationError):
        timeout.fail(RuntimeError("x"))


def test_timeout_fires_at_its_delay(sim):
    fired = []
    timeout = sim.timeout(2.5, value="late")
    timeout.add_callback(lambda event: fired.append((sim.now, event.value)))
    sim.run()
    assert fired == [(2.5, "late")]


def test_callback_after_processing_still_runs(sim):
    timeout = sim.timeout(1.0)
    sim.run()
    late = []
    timeout.add_callback(lambda event: late.append(sim.now))
    sim.run()
    assert late == [1.0]


def test_process_returns_value(sim):
    def worker(sim):
        yield sim.timeout(1.0)
        return "done"

    process = sim.process(worker(sim))
    sim.run()
    assert process.value == "done"
    assert process.triggered


def test_process_requires_generator(sim):
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_receives_timeout_value(sim):
    received = []

    def worker(sim):
        value = yield sim.timeout(1.0, value="payload")
        received.append(value)

    sim.process(worker(sim))
    sim.run()
    assert received == ["payload"]


def test_process_can_wait_on_another_process(sim):
    def inner(sim):
        yield sim.timeout(3.0)
        return "inner-result"

    def outer(sim):
        result = yield sim.process(inner(sim))
        return (sim.now, result)

    process = sim.process(outer(sim))
    sim.run()
    assert process.value == (3.0, "inner-result")


def test_failed_event_throws_into_process(sim):
    caught = []

    def worker(sim):
        event = sim.event()
        sim.process(failer(sim, event))
        try:
            yield event
        except ValueError as exc:
            caught.append(str(exc))

    def failer(sim, event):
        yield sim.timeout(1.0)
        event.fail(ValueError("boom"))

    sim.process(worker(sim))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_crash_surfaces(sim):
    def worker(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    sim.process(worker(sim))
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()


def test_yielding_non_event_is_an_error(sim):
    def worker(sim):
        yield "42 seconds"

    sim.process(worker(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_yielding_number_is_a_pooled_sleep(sim):
    waits = []

    def worker(sim):
        received = yield 1.5
        waits.append((sim.now, received))
        yield 2
        waits.append((sim.now, None))
        return "done"

    process = sim.process(worker(sim))
    sim.run()
    assert waits == [(1.5, None), (3.5, None)]
    assert process.value == "done"


def test_yielding_negative_number_is_an_error(sim):
    def worker(sim):
        yield -0.5

    sim.process(worker(sim))
    with pytest.raises(SimulationError):
        sim.run()


def test_all_of_collects_all_values(sim):
    t1 = sim.timeout(1.0, value="a")
    t2 = sim.timeout(2.0, value="b")
    condition = AllOf(sim, [t1, t2])

    def waiter(sim, condition):
        values = yield condition
        return sorted(values.values())

    process = sim.process(waiter(sim, condition))
    sim.run()
    assert process.value == ["a", "b"]
    assert sim.now == 2.0


def test_empty_all_of_fires_immediately(sim):
    condition = AllOf(sim, [])

    def waiter(sim, condition):
        yield condition
        return sim.now

    process = sim.process(waiter(sim, condition))
    sim.run()
    assert process.value == 0.0


def test_condition_with_already_processed_child(sim):
    t1 = sim.timeout(1.0, value="early")
    sim.run()
    assert t1.processed
    condition = AllOf(sim, [t1])

    def waiter(sim, condition):
        values = yield condition
        return values[t1]

    process = sim.process(waiter(sim, condition))
    sim.run()
    assert process.value == "early"


def test_condition_rejects_foreign_events(sim):
    other = Simulator()
    t_foreign = other.timeout(1.0)
    with pytest.raises(SimulationError):
        AllOf(sim, [t_foreign])
