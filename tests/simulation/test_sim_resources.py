"""Unit tests for Resource and Store."""

import pytest

from repro.errors import SimulationError
from repro.simulation.resources import Resource


def test_resource_capacity_validation(sim):
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_grants_up_to_capacity_immediately(sim):
    resource = Resource(sim, capacity=2)
    first = resource.acquire()
    second = resource.acquire()
    third = resource.acquire()
    assert first.triggered and second.triggered
    assert not third.triggered
    resource.release()
    assert third.triggered


def test_release_hands_slot_to_waiter(sim):
    resource = Resource(sim, capacity=1)
    resource.acquire()
    waiter = resource.acquire()
    assert not waiter.triggered
    resource.release()
    assert waiter.triggered
    # handed over, not freed: the slot is still held
    assert not resource.acquire().triggered


def test_release_without_hold_is_an_error(sim):
    resource = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_resource_serializes_processes(sim):
    resource = Resource(sim, capacity=1)
    spans = []

    def worker(sim, resource, name):
        yield resource.acquire()
        start = sim.now
        yield sim.timeout(2.0)
        resource.release()
        spans.append((name, start, sim.now))

    sim.process(worker(sim, resource, "a"))
    sim.process(worker(sim, resource, "b"))
    sim.run()
    assert spans == [("a", 0.0, 2.0), ("b", 2.0, 4.0)]


def test_fifo_fairness_of_waiters(sim):
    resource = Resource(sim, capacity=1)
    order = []

    def worker(sim, resource, name):
        yield resource.acquire()
        order.append(name)
        yield sim.timeout(1.0)
        resource.release()

    for name in ("first", "second", "third"):
        sim.process(worker(sim, resource, name))
    sim.run()
    assert order == ["first", "second", "third"]

