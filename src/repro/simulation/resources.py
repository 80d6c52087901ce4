"""Capacity-limited resources for simulation processes.

:class:`Resource` models a pool of interchangeable slots (relay node work
slots, node service threads).
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.simulation.events import Event
from repro.simulation.kernel import Simulator


class Resource:
    """A pool of ``capacity`` slots acquired and released by processes.

    Usage inside a process::

        req = resource.acquire()
        yield req
        try:
            ...  # hold the slot
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    def acquire(self) -> Event:
        """Return an event that succeeds once a slot is held."""
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release one held slot, waking the longest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a held slot")
        if self._waiters:
            # Hand the slot directly to the next waiter; _in_use unchanged.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

