"""The metric catalog: ``BENCHMARK.json`` plus each metric's clock.

``BENCHMARK.json`` is the one place a metric's unit, direction and
regression bound are written down.  What it cannot hold is the clock:
**host** numbers are seconds (or rates per second) of the machine that
ran the benchmark and carry noise; **sim** numbers are seconds, bytes
and counts of the modelled fleet and repeat exactly for a fixed seed.
"""

from __future__ import annotations

import json
import os
from typing import Dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_HOST_END_TO_END = frozenset(
    {"setup_s", "delivered_keys_per_s", "served_reads_per_s", "peak_rss_mb"}
)
_HOST_PER_LAYER = frozenset(
    {"mint.replica_puts_per_s", "simulation.host_us_per_event"}
)


def load() -> Dict[str, object]:
    """``BENCHMARK.json`` with its metric lists keyed by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    for section in ("end_to_end", "per_layer"):
        document[section] = {
            metric["name"]: metric for metric in document[section]
        }
    return document


def clock(name: str) -> str:
    """``"host"`` or ``"sim"`` for an end-to-end or per-layer metric."""
    if "." not in name:
        return "host" if name in _HOST_END_TO_END else "sim"
    if name.startswith("bench.") or name in _HOST_PER_LAYER:
        return "host"
    # span self times end in _s; ssd.busy_sim_s is the device's own clock
    if name.endswith("_s") and name != "ssd.busy_sim_s":
        return "host"
    return "sim"
