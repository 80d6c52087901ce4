"""Discrete-event simulation kernel used by the network and cluster models.

This is a small, deterministic, generator-based DES in the style of SimPy:
processes are Python generators that ``yield`` events (timeouts, other
processes, resource requests) and are resumed when those events trigger.

The kernel is intentionally minimal — just enough to model Bifrost's
relay network, Mint's replicated nodes, and DirectLoad's update cycles —
but it is a real event loop with a stable total order of events, so all
experiments built on it are reproducible bit-for-bit.
"""

from repro.simulation.events import AllOf, Event, Process, Timeout
from repro.simulation.kernel import Simulator
from repro.simulation.pipes import Link
from repro.simulation.resources import Resource

__all__ = [
    "AllOf",
    "Event",
    "Link",
    "Process",
    "Resource",
    "Simulator",
    "Timeout",
]
