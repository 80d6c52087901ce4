"""Measurement utilities shared by experiments and benches.

* :class:`PercentileTracker` — latency samples with avg/p99/p99.9
  summaries (Figure 8's three statistical points);
* :class:`ThroughputSampler` — periodic counter snapshots turned into
  per-interval deltas (how the paper's firmware counters become curves);
* :class:`CacheCounters` — hit/miss/eviction/invalidation accounting
  shared by the read-side caches (LSM block cache idiom, QinDB record
  cache), so ablations report hit rates the same way everywhere;
* :class:`BatchCounters` — write-batch accounting (batches issued, keys
  they carried) shared by the batched ingest path, so the A9 ablation
  reports realized batch sizes the same way at every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError


class PercentileTracker:
    """Collects samples; reports mean and arbitrary percentiles.

    The sorted order is cached between queries and invalidated by the
    next ``add``/``extend``, so ``summary()`` (three percentile reads)
    sorts once instead of three times; :attr:`sort_count` witnesses it.

    Every sample is kept and percentiles are exact — the reference the
    tier-1 tests and the figure benches pin, and what
    :class:`~repro.obs.hist.LogHistogram` (the bounded-memory structure
    the serving path uses) is checked against.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._ordered: Optional[List[float]] = None
        self._sort_count = 0
        self._sum = 0.0

    def add(self, sample: float) -> None:
        self._samples.append(sample)
        self._ordered = None
        self._sum += sample

    def extend(self, samples: Sequence[float]) -> None:
        start = len(self._samples)
        self._samples.extend(samples)
        self._ordered = None
        # Element-wise accumulation keeps the running sum bit-identical
        # to what the same samples fed through ``add`` produce.
        for sample in self._samples[start:]:
            self._sum += sample

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def sort_count(self) -> int:
        """How many times the sample list has actually been sorted."""
        return self._sort_count

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return self._sum / len(self._samples)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (nearest-rank on the sorted samples)."""
        if not 0.0 <= p <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        if self._ordered is None:
            self._ordered = sorted(self._samples)
            self._sort_count += 1
        # The epsilon guards against float artifacts like 99.9/100*1000
        # evaluating to 999.0000000000001 (which would ceil to 1000).
        rank = max(0, math.ceil(p / 100.0 * len(self._ordered) - 1e-9) - 1)
        return self._ordered[rank]

    def summary(self) -> Dict[str, float]:
        """The paper's three statistical points (Figure 8)."""
        return {
            "avg": self.mean,
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
        }

    def quantiles(self) -> Dict[str, float]:
        """The serving-SLO view: median plus both tails, with count."""
        return {
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
            "count": float(len(self)),
        }


@dataclass
class CacheCounters:
    """Hit/miss/eviction/invalidation tallies for one cache instance.

    ``hits + misses`` is the lookup count; evictions are capacity-driven
    removals, invalidations are correctness-driven ones (a compaction
    deleted the file, a GC erased the segment).  Keeping the two apart is
    what lets the ablations distinguish "the cache was too small" from
    "the write path killed the cache".
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidated: int = 0

    def reset_lookups(self) -> None:
        """Zero the hit/miss tallies (per-phase measurements)."""
        self.hits = 0
        self.misses = 0


@dataclass
class BatchCounters:
    """Batch-path tallies for one engine instance.

    ``batches`` counts :meth:`put_batch` calls, ``batched_puts`` the keys
    they carried; ``batched_puts / batches`` is the realized batch size.
    ``get_batches``/``batched_gets`` are the read-side mirror for
    :meth:`get_batch`.  A per-key verb is a batch of one and counts as
    such; kept apart from the engine's other counters so that how a run
    of items was split into batches can be asserted to change nothing
    *except* these.
    """

    batches: int = 0
    batched_puts: int = 0
    get_batches: int = 0
    batched_gets: int = 0


@dataclass
class Sample:
    """One periodic snapshot of monotonically increasing counters."""

    at: float
    values: Dict[str, float]


class ThroughputSampler:
    """Snapshots counter dicts on an interval; yields per-interval rates.

    Any ``name -> value`` dict will do, a
    :meth:`~repro.obs.registry.MetricsRegistry.collect` among them.
    """

    def __init__(self, interval_s: float = 60.0) -> None:
        if interval_s <= 0:
            raise ConfigError(f"interval must be positive, got {interval_s}")
        self.interval_s = interval_s
        self._samples: List[Sample] = []
        self._next_due = 0.0

    def prime(self, now: float, counters: Dict[str, float]) -> None:
        """Record the baseline sample at experiment start."""
        self._samples = [Sample(now, dict(counters))]
        self._next_due = now + self.interval_s

    def maybe_sample(
        self, now: float, read_counters: Callable[[], Dict[str, float]]
    ) -> None:
        """Take snapshots for every interval boundary passed by ``now``."""
        while now >= self._next_due:
            self._samples.append(Sample(self._next_due, dict(read_counters())))
            self._next_due += self.interval_s

    def finalize(self, now: float, counters: Dict[str, float]) -> None:
        """Record the trailing partial interval."""
        if not self._samples or now > self._samples[-1].at:
            self._samples.append(Sample(now, dict(counters)))

    def rate_series(self, counter: str) -> List[Tuple[float, float]]:
        """(interval_start, delta/second) for one counter.

        A counter missing from a snapshot reads as 0.0 — counters can be
        registered mid-run, and their pre-registration history is zero.
        """
        series: List[Tuple[float, float]] = []
        for before, after in zip(self._samples, self._samples[1:]):
            duration = after.at - before.at
            if duration <= 0:
                continue
            delta = after.values.get(counter, 0.0) - before.values.get(counter, 0.0)
            series.append((before.at, delta / duration))
        return series

    def level_series(self, counter: str) -> List[Tuple[float, float]]:
        """(time, value) of a gauge-like counter at each snapshot."""
        return [(s.at, s.values.get(counter, 0.0)) for s in self._samples]


def mean_and_stddev(values: Sequence[float]) -> Tuple[float, float]:
    """Population mean and standard deviation (Figure 6's metric)."""
    if not values:
        return 0.0, 0.0
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(variance)
