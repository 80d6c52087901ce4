"""Generic key-value operation traces and the replay harness.

A trace is a sequence of :class:`KVOp` (put / delete / get).  The replay
harness drives any engine with the QinDB interface and samples the
device's firmware counters on a simulated-time interval, producing the
``User Write`` / ``Sys Write`` / ``Sys Read`` rate series of Figure 5 and
the disk-occupancy series of Figure 7.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.metrics import ThroughputSampler, mean_and_stddev
from repro.errors import ConfigError, KeyNotFoundError


class OpKind(enum.Enum):
    """The three operations a trace can contain."""

    PUT = "put"
    DELETE = "delete"
    GET = "get"


@dataclass(frozen=True)
class KVOp:
    """One operation; ``value=None`` on a PUT means deduplicated."""

    kind: OpKind
    key: bytes
    version: int
    value: Optional[bytes] = None


def make_value(key: bytes, version: int, size: int, seed: int = 0) -> bytes:
    """A deterministic pseudo-random value of ``size`` bytes.

    Derived from (key, version, seed) with a keyed hash — not Python's
    salted ``hash()`` — so regenerating a trace reproduces identical bytes
    (and identical content signatures) across processes.
    """
    if size < 0:
        raise ConfigError(f"value size must be >= 0, got {size}")
    if size == 0:
        return b""
    material = key + version.to_bytes(8, "little") + seed.to_bytes(8, "little")
    digest = hashlib.blake2b(material, digest_size=32).digest()
    return (digest * (size // len(digest) + 1))[:size]


@dataclass
class TraceReplayResult:
    """Counter series and summary statistics from one replay."""

    #: (interval_start_s, MB/s) series
    user_write_series: List[Tuple[float, float]]
    sys_write_series: List[Tuple[float, float]]
    sys_read_series: List[Tuple[float, float]]
    #: (time_s, bytes) disk occupancy snapshots
    disk_used_series: List[Tuple[float, float]]
    elapsed_s: float
    ops_applied: int
    final_stats: object

    @property
    def user_write_mean_mbs(self) -> float:
        return mean_and_stddev([v for _t, v in self.user_write_series])[0]

    @property
    def sys_write_mean_mbs(self) -> float:
        return mean_and_stddev([v for _t, v in self.sys_write_series])[0]


def replay_trace(
    engine,
    ops: Iterable[KVOp],
    sample_interval_s: float = 60.0,
    pace_user_bytes_per_s: Optional[float] = None,
) -> TraceReplayResult:
    """Apply ``ops`` to ``engine``, sampling counters per sim interval.

    ``engine`` is anything with the batch verbs of
    :class:`~repro.mint.node.Engine` plus ``user_bytes_written``; each op
    is a batch of one.  GETs on missing keys are tolerated (counted but
    not fatal) so read probes can run against partially loaded stores.

    ``pace_user_bytes_per_s`` throttles the *offered* user-write rate, as
    the paper's replayed index stream is paced by index arrival.  The
    engine idles when ahead of the pace but can fall *behind* it — e.g.
    during LSM compaction bursts — which is exactly what makes the
    Figure 5/6 user-write series differ between engines.
    """
    device = engine.device
    megabyte = 1024.0 * 1024.0

    def counters() -> Dict[str, float]:
        stats = engine.stats()
        return {
            "user_write": stats.user_bytes_written,
            "sys_write": stats.device_total_bytes_written,
            "sys_read": stats.device_total_bytes_read,
            "disk_used": stats.disk_used_bytes,
        }

    sampler = ThroughputSampler(interval_s=sample_interval_s)
    sampler.prime(device.now, counters())
    applied = 0
    start = device.now
    for op in ops:
        if op.kind is OpKind.PUT:
            if pace_user_bytes_per_s:
                target = start + engine.user_bytes_written / pace_user_bytes_per_s
                if device.now < target:
                    device.advance(target - device.now)
            engine.put_batch([(op.key, op.version, op.value)])
        elif op.kind is OpKind.DELETE:
            try:
                engine.delete_batch([(op.key, op.version)])
            except KeyNotFoundError:
                pass
        else:
            engine.get_batch([(op.key, op.version)])
        applied += 1
        sampler.maybe_sample(device.now, counters)
    sampler.finalize(device.now, counters())

    to_mbs = lambda series: [(t, v / megabyte) for t, v in series]
    return TraceReplayResult(
        user_write_series=to_mbs(sampler.rate_series("user_write")),
        sys_write_series=to_mbs(sampler.rate_series("sys_write")),
        sys_read_series=to_mbs(sampler.rate_series("sys_read")),
        disk_used_series=sampler.level_series("disk_used"),
        elapsed_s=device.now - start,
        ops_applied=applied,
        final_stats=engine.stats(),
    )
