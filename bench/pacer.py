"""Host-speed calibration interleaved with the workload.

The benchmark runs on a shared two-core box whose effective speed
wanders by tens of percent over seconds (measured: the same 3 ms loop
takes 2.9 to 5.1 ms averaged over 2 s windows, within one minute).  A
rate computed from raw wall seconds inherits that wander, and no run
short enough for the time budget averages it out.

So the benchmark carries its own clock.  About every
:data:`INTERVAL_S` of host time a hook runs a fixed *calibration unit*
(interpreter, dict, bytes and memory work, about 4 ms) and times it.
The stretch of workload between two calibrations is then rescaled by how
fast the machine was around it:

    reference seconds = wall seconds x REFERENCE_UNIT_S / unit seconds

Every host metric the benchmark reports (set-up time, keys/s, reads/s)
is in *reference seconds*: seconds of a machine on which the unit takes
:data:`REFERENCE_UNIT_S`, which is this container when undisturbed.  On
identical work this cut the run-to-run quartile spread from ~21% to ~2%.
Raw wall seconds stay in the result file (``regions[*].wall_s``).

The interference comes in bursts shorter than a unit as well as in slow
drifts, so what is left after rescaling is sampling error: it falls with
the share of time spent calibrating.  At ~2% of the time (a unit every
0.2 s) ~5% spread was left; the interval below spends ~10% and leaves
~2%.

Calibration time is never part of a reported duration.
"""

from __future__ import annotations

import contextlib
import time
import zlib
from typing import Callable, Iterator, List, Tuple

from bench import trace

#: host seconds of workload between two calibration units
INTERVAL_S = 0.03
#: what one unit takes on the reference machine (this container's 10th
#: percentile over a quiet minute); a constant, so results compare
#: across runs and commits
REFERENCE_UNIT_S = 0.0036

_POOL_OBJECTS = 100_000
_STRIDE = 7919


def _unit(pool: List[bytes], offset: int) -> int:
    """The fixed work: small-int dict churn, then a strided walk over a
    pool of byte strings (checksums, dict inserts keyed by bytes)."""
    table = {}
    for i in range(12_000):
        table[i & 1023] = (i * 2654435761) & 0xFFFFFFFF
    acc = 0
    for value in table.values():
        acc ^= value
    size = len(pool)
    index = offset % size
    seen = {}
    crc32 = zlib.crc32
    for _ in range(3_000):
        blob = pool[index]
        acc ^= crc32(blob)
        seen[blob] = index
        index = (index + _STRIDE) % size
    return acc


class Pacer:
    """Runs and times calibration units; rescales intervals by them."""

    def __init__(self) -> None:
        self._pool = [bytes([i & 255]) * 64 for i in range(_POOL_OBJECTS)]
        #: (start, end) host times of every unit run, in order
        self.samples: List[Tuple[float, float]] = []
        self._due = 0.0

    def tick(self) -> None:
        """Calibrate if :data:`INTERVAL_S` passed since the last unit."""
        if time.perf_counter() >= self._due:
            self.calibrate()

    def calibrate(self) -> None:
        start = time.perf_counter()
        _unit(self._pool, len(self.samples) * 3_000 * _STRIDE)
        end = time.perf_counter()
        self.samples.append((start, end))
        self._due = end + INTERVAL_S

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Tick at the write path's per-node batch calls, its most
        frequent ones (the read path ticks from the benchmark's own
        client loop)."""
        from repro.qindb.engine import QinDB

        with trace.patched(QinDB, "put_batch", self.hook), \
                trace.patched(QinDB, "delete_batch", self.hook):
            yield

    def hook(self, original: Callable) -> Callable:
        """``original`` preceded by :meth:`tick` (a pass-through)."""
        tick = self.tick

        def paced(*args, **kwargs):
            tick()
            return original(*args, **kwargs)

        return paced

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """``(wall, reference)`` seconds of the host interval.

        Both exclude the calibration units that ran inside it.  Call
        :meth:`calibrate` right before ``start`` and right after ``end``
        so the interval is bracketed.
        """
        wall = reference = 0.0
        for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
            low, high = max(e0, start), min(s1, end)
            if high <= low:
                continue
            unit_s = ((e0 - s0) + (e1 - s1)) / 2.0
            wall += high - low
            reference += (high - low) * REFERENCE_UNIT_S / unit_s
        return wall, reference
