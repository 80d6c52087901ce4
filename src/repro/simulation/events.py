"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot trigger carrying a value or an exception.
Processes wait on events by yielding them; the kernel resumes the process
when the event triggers. :class:`Timeout` is an event scheduled at creation
time; :class:`Process` wraps a generator and is itself an event that
triggers when the generator finishes, so processes can wait on each other.

Lifecycle of an event:

* *untriggered* — created, not yet succeeded or failed;
* *triggered* — ``succeed``/``fail`` was called; the event sits in the
  kernel's queue with a firing time;
* *processed* — the kernel popped it and ran its callbacks.  After this,
  ``callbacks`` is ``None`` and new waiters observe the stored outcome
  immediately.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.simulation.kernel import Simulator

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for."""

    __slots__ = ("sim", "callbacks", "_value", "_ok")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks run when the kernel processes the event; ``None`` after.
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = _PENDING
        self._ok: bool | None = None

    @property
    def triggered(self) -> bool:
        """Whether the event has been succeeded or failed."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether the kernel has already run this event's callbacks."""
        return self.callbacks is None

    @property
    def value(self) -> Any:
        """The event's payload (or exception, if it failed)."""
        if self._value is _PENDING:
            raise SimulationError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` as its payload."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to throw into waiters."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._schedule(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event was already processed, the callback is run via an
        immediately-scheduled relay event so ordering stays deterministic.
        """
        if self.callbacks is not None:
            self.callbacks.append(callback)
            return
        relay = Event(self.sim)
        relay._ok = self._ok
        relay._value = self._value
        relay.callbacks.append(callback)
        self.sim._schedule(relay)


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay=delay)

    def succeed(self, value: Any = None) -> "Event":
        raise SimulationError("a Timeout triggers itself; do not succeed() it")

    def fail(self, exception: BaseException) -> "Event":
        raise SimulationError("a Timeout triggers itself; do not fail() it")


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The generator yields events.  When a yielded event succeeds, the
    generator is resumed with the event's value; when it fails, the
    exception is thrown into the generator (which may catch it).

    A generator may also yield a plain non-negative ``float``/``int``:
    a fixed-delay sleep.  The wait is scheduled at the exact point the
    ``Timeout`` equivalent would have been (the yield is synchronous),
    so ordering is identical — but the process reuses one pooled event
    for every such sleep instead of allocating a ``Timeout`` per wait.
    The resumed value is ``None``.
    """

    __slots__ = ("_generator", "_target", "_sleep")

    def __init__(self, sim: "Simulator", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(sim)
        self._generator = generator
        self._target: Event | None = None
        #: the pooled fixed-delay sleep event (created on first use)
        self._sleep: Event | None = None
        # Kick off the process at the current simulation time.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        sim._schedule(init)

    def _resume(self, event: Event) -> None:
        """Advance the generator after ``event`` has triggered."""
        self._target = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self.sim._schedule(self)
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            self.sim._schedule(self)
            return
        cls = target.__class__
        if cls is float or cls is int:
            # Pooled sleep: one reusable event per process.  Safe because
            # a process has at most one outstanding wait, and the pooled
            # event is invisible outside this process.
            if target < 0:
                raise SimulationError(f"negative timeout delay: {target!r}")
            sleep = self._sleep
            if sleep is None:
                sleep = Event(self.sim)
                sleep._ok = True
                self._sleep = sleep
            sleep._value = None
            sleep.callbacks = [self._resume]
            self._target = sleep
            self.sim._schedule(sleep, target)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {type(target).__name__}, expected an Event"
            )
        if target.sim is not self.sim:
            raise SimulationError("process yielded an event from another simulator")
        self._target = target
        target.add_callback(self._resume)


class AllOf(Event):
    """Triggers when every child event has succeeded (or any fails)."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("condition mixes events from simulators")
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._child_triggered)

    def _child_triggered(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({child: child._value for child in self.events})
