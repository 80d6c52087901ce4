"""The discrete-event simulator: a clock plus an ordered event queue.

Events are totally ordered by ``(time, sequence_number)`` so runs are
deterministic regardless of hashing or insertion patterns.  The public
surface mirrors SimPy's environment: :meth:`process`, :meth:`timeout`,
:meth:`event`, :meth:`run`.

Internally the queue is *bucketed by timestamp*: a heap of distinct
times plus one insertion-ordered event list per time.  Same-timestamp
callback cascades — a delivery fan-out of N replicas, a zero-delay
resume chain — cost one heap push for the bucket and O(1) list appends
per event, instead of O(log n) heap traffic each.  Insertion order
within a bucket *is* the old sequence-number order, so the total order
``(time, insertion)`` is unchanged and every run stays byte-identical
with the pre-bucketing kernel (pinned by
``tests/integration/test_perf_equivalence.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Optional

from repro.errors import SimulationError
from repro.simulation.events import AllOf, Event, Process, Timeout

_INF = float("inf")


class Simulator:
    """A deterministic discrete-event simulation environment.

    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(3.0)
    ...     return sim.now
    >>> proc = sim.process(hello(sim))
    >>> sim.run()
    >>> proc.value
    3.0
    """

    __slots__ = (
        "now",
        "_times",
        "_buckets",
        "_current",
        "_current_time",
        "_pos",
        "events_processed",
    )

    def __init__(self, start: float = 0.0) -> None:
        #: current simulated time in seconds
        self.now = float(start)
        #: heap of distinct pending timestamps
        self._times: list[float] = []
        #: events per timestamp, in schedule order
        self._buckets: dict[float, list[Event]] = {}
        #: the bucket being drained (stays in ``_buckets`` until empty so
        #: zero-delay cascades append to it and fire this same timestamp)
        self._current: list[Event] | None = None
        self._current_time = self.now
        self._pos = 0
        #: events processed since construction (perf-bench telemetry)
        self.events_processed = 0

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create an untriggered event owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now.

        Processes that do not need the timeout's value can yield the
        plain number instead — same schedule point, same ordering, no
        ``Timeout`` allocation (see :meth:`Process._resume`).
        """
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a process from ``generator`` and return its handle."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """An event firing once all ``events`` succeed."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue a triggered event to be processed after ``delay``."""
        if not delay and self._current is not None:
            # this instant's bucket (``run`` drops it before moving on)
            self._current.append(event)
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay!r}")
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [event]
            heappush(self._times, when)
        else:
            bucket.append(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        current = self._current
        if current is not None and self._pos < len(current):
            return self._current_time
        if self._times:
            return self._times[0]
        return _INF

    def _pop_next(self) -> Optional[Event]:
        """Advance the bucket cursor; ``None`` when the queue is empty."""
        current = self._current
        if current is not None:
            pos = self._pos
            if pos < len(current):
                self._pos = pos + 1
                return current[pos]
            # Drained: only now is the bucket finalized, so a same-time
            # schedule arriving mid-drain was appended, not lost.
            del self._buckets[self._current_time]
            self._current = None
        if not self._times:
            return None
        when = heappop(self._times)
        current = self._buckets[when]
        self._current = current
        self._current_time = when
        self.now = when
        self._pos = 1
        return current[0]

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        event = self._pop_next()
        if event is None:
            raise SimulationError("step() on an empty event queue")
        self.events_processed += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks or ():
            callback(event)
        if event._ok is False and not callbacks:
            # A failed event (or crashed process) nobody waited for would
            # otherwise vanish silently; surface it to the caller of run().
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be ``None`` (drain the queue), a number (simulated
        deadline), or an :class:`Event` (stop when it is processed and
        return its value, re-raising its exception if it failed).
        """
        stop_event: Event | None = None
        deadline = _INF
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            deadline = float(until)
            if deadline < self.now:
                raise SimulationError(
                    f"run(until={deadline}) is before now={self.now}"
                )

        # One loop for all three forms, the cursor advance inlined: the
        # per-event cost is attribute reads and one callback loop, with
        # no peek()/step() call per iteration.
        times = self._times
        buckets = self._buckets
        pop_time = heappop
        events = 0
        try:
            while stop_event is None or stop_event.callbacks is not None:
                current = self._current
                if current is not None and self._pos < len(current):
                    event = current[self._pos]
                    self._pos += 1
                else:
                    if current is not None:
                        # Drained: finalized before the clock can move on.
                        del buckets[self._current_time]
                        self._current = None
                    if not times:
                        break
                    if times[0] > deadline:
                        self.now = deadline
                        return None
                    when = pop_time(times)
                    current = buckets[when]
                    self._current = current
                    self._current_time = when
                    self.now = when
                    self._pos = 1
                    event = current[0]
                events += 1
                callbacks, event.callbacks = event.callbacks, None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                elif event._ok is False:
                    raise event._value  # unwaited failure: see step()
        finally:
            self.events_processed += events

        if stop_event is not None:
            if stop_event.callbacks is not None:
                raise SimulationError(
                    "queue drained before the awaited event triggered"
                )
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value
        if deadline != _INF:
            self.now = deadline
        return None
