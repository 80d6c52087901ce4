"""``Simulator.run`` against the ``peek()``/``step()`` loop it replaced.

``run`` is one inlined cursor loop for all three ``until`` forms.  The
contract is that inlining is pure mechanics: on any process graph, each
form fires the same callbacks in the same order, leaves the same ``now``
and ``events_processed``, and raises the same errors as driving the
kernel one public ``step()`` at a time — the parent's loop, kept below
as the reference.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.simulation.events import Event
from repro.simulation.kernel import Simulator

SEEDS = range(120)
#: few distinct delays -> dense same-timestamp buckets
DELAYS = (0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.5)
_INF = float("inf")


class Boom(Exception):
    pass


def reference_run(sim, until=None):
    """The parent's ``run(until=deadline|event)`` loop, verbatim (its
    ``until=None`` fast path fired events exactly as this does)."""
    stop_event = None
    deadline = _INF
    if isinstance(until, Event):
        stop_event = until
    elif until is not None:
        deadline = float(until)
        if deadline < sim._now:
            raise SimulationError(
                f"run(until={deadline}) is before now={sim._now}"
            )
    while True:
        if stop_event is not None and stop_event.callbacks is None:
            break
        upcoming = sim.peek()
        if upcoming == _INF:
            break
        if upcoming > deadline:
            sim._now = deadline
            return None
        sim.step()
    if stop_event is not None:
        if stop_event.callbacks is not None:
            raise SimulationError(
                "queue drained before the awaited event triggered"
            )
        if not stop_event._ok:
            raise stop_event._value
        return stop_event._value
    if deadline != _INF:
        sim._now = deadline
    return None


# ----------------------------------------------------------------------
# Seeded random process graphs
# ----------------------------------------------------------------------
def draw_script(rng, depth=0):
    """One process's actions, drawn up front so that both kernels run
    the same program whatever order they fire it in."""
    script = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(
            ["sleep", "sleep", "timeout", "wait", "fire", "fail", "all",
             "spawn", "spawn", "crash"]
        )
        if kind in ("sleep", "timeout"):
            script.append((kind, rng.choice(DELAYS)))
        elif kind in ("wait", "fire", "fail"):
            script.append((kind, rng.randrange(3)))
        elif kind == "all":
            script.append(
                (kind, [rng.choice(DELAYS) for _ in range(rng.randint(0, 3))])
            )
        elif kind == "spawn" and depth < 2:
            script.append(
                ("spawn", draw_script(rng, depth + 1), rng.random() < 0.5)
            )
        elif kind == "crash" and rng.random() < 0.3:
            script.append(("crash", None))
    return script


class Graph:
    """The same seeded program, instantiated on one simulator."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.sim = Simulator()
        self.log = []
        self.shared = [self.sim.event() for _ in range(3)]
        self._names = iter(range(10**6))
        self.roots = [
            self.sim.process(self._worker(draw_script(rng)))
            for _ in range(rng.randint(2, 5))
        ]

    def _worker(self, script):
        sim, log, shared = self.sim, self.log, self.shared
        name = next(self._names)
        for step, action in enumerate(script):
            log.append((sim.now, name, step, action[0]))
            kind = action[0]
            try:
                if kind == "sleep":
                    yield action[1]
                elif kind == "timeout":
                    yield sim.timeout(action[1], value=name)
                elif kind == "wait":
                    log.append(("woke", name, (yield shared[action[1]])))
                elif kind == "fire" and not shared[action[1]].triggered:
                    shared[action[1]].succeed(name)
                elif kind == "fail" and not shared[action[1]].triggered:
                    shared[action[1]].fail(Boom(f"shared by {name}"))
                elif kind == "all":
                    yield sim.all_of(
                        [sim.timeout(delay) for delay in action[1]]
                    )
                elif kind == "spawn":
                    child = sim.process(self._worker(action[1]))
                    if action[2]:
                        yield child
                elif kind == "crash":
                    raise Boom(f"crash of {name}")
            except Boom as exc:
                if kind == "crash":
                    raise
                log.append(("caught", name, str(exc)))
        return name

    def call(self, run, *args):
        """One ``run`` call: what it returned or raised, and where it
        left the clock and the event counter."""
        try:
            outcome = ("returned", run(self.sim, *args))
        except (Boom, SimulationError) as exc:
            outcome = ("raised", type(exc).__name__, str(exc))
        self.log.append((outcome, self.sim.now, self.sim.events_processed))
        return outcome

    def drain(self, run):
        """Call ``run()`` until it returns: an unwaited failure stops a
        run mid-bucket, and the next call must pick up right there."""
        for _ in range(200):
            if self.call(run)[0] == "returned":
                return
        raise AssertionError("never quiesced")


def both(seed):
    return (Graph(seed), Simulator.run), (Graph(seed), reference_run)


def test_run_to_drain_matches_the_step_loop():
    for seed in SEEDS:
        (new, run), (old, reference) = both(seed)
        new.drain(run)
        old.drain(reference)
        assert new.log == old.log, seed


def test_run_until_deadline_matches_the_step_loop():
    for seed in SEEDS:
        graphs = both(seed)
        for graph, run in graphs:
            rng = random.Random(seed + 1)
            deadline = 0.0
            for _ in range(12):
                # zero steps too: a deadline equal to now, and one that
                # lands exactly on a bucket's timestamp
                deadline += rng.choice((0.0, 0.25, 0.5, 1.0))
                graph.call(run, deadline)
            graph.call(run, deadline - 1.0)  # deadline before now
            graph.drain(run)
        assert graphs[0][0].log == graphs[1][0].log, seed


def test_run_until_event_matches_the_step_loop():
    for seed in SEEDS:
        graphs = both(seed)
        for graph, run in graphs:
            # finished, still running, crashed (re-raised), and never
            # finishing ("queue drained before ...") processes alike
            for root in graph.roots + graph.shared:
                graph.call(run, root)
            graph.drain(run)
        assert graphs[0][0].log == graphs[1][0].log, seed


def test_the_graphs_exercise_every_error():
    """The generator is only a test if it reaches the cases named above."""
    seen = set()
    for seed in SEEDS:
        graph = Graph(seed)
        for root in graph.roots + graph.shared:
            outcome = graph.call(Simulator.run, root)
            if outcome[0] == "raised":
                seen.add(outcome[2].split(" of ")[0].split(" by ")[0])
        graph.call(Simulator.run, graph.sim.now - 1.0)
        graph.drain(Simulator.run)
    assert {
        "crash", "shared", "queue drained before the awaited event triggered",
    } <= seen


def test_step_loop_reference_is_the_public_api(sim):
    """``peek`` and ``step`` stay public and usable beside ``run``."""
    fired = []
    sim.timeout(1.0).callbacks.append(lambda event: fired.append(sim.now))
    sim.timeout(2.0).callbacks.append(lambda event: fired.append(sim.now))
    assert sim.peek() == 1.0
    sim.step()
    assert (fired, sim.now, sim.events_processed) == ([1.0], 1.0, 1)
    sim.run()
    assert (fired, sim.peek(), sim.events_processed) == ([1.0, 2.0], _INF, 2)
    with pytest.raises(SimulationError):
        sim.step()
