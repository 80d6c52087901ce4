"""Mergeable log-bucketed histograms (HDR-style, fixed memory).

A :class:`LogHistogram` spreads samples across geometrically growing
buckets: bucket ``i`` covers ``(min_value * growth**(i-1),
min_value * growth**i]``, so relative resolution is constant —
``growth - 1`` (2% by default) — from microseconds to hours in ~1200
``int`` slots.  That buys three things the exact, keep-every-sample
:class:`~repro.core.metrics.PercentileTracker` cannot offer:

* **fixed memory** regardless of sample count;
* **mergeability** — two histograms with the same geometry add
  bucket-wise, so per-replica latency distributions aggregate into a
  fleet distribution without shipping samples;
* **deterministic bounded-error percentiles** — a percentile read
  returns its bucket's *upper* bound, so the reported value is always
  ``>=`` the exact nearest-rank percentile and within one bucket width
  (a factor of ``growth``) of it.

The mean stays exact (running sum).  The API mirrors
``PercentileTracker`` (``add``/``extend``/``percentile``/``quantiles``/
``summary``/``len``) so it drops into the serving SLO path unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: per geometry ``(min_value, max_value, growth)``, the value a sample
#: in each bucket reads back as — one list shared by its histograms
_BOUNDS: Dict[Tuple[float, float, float], List[float]] = {}


class LogHistogram:
    """Fixed-memory histogram with geometric buckets.

    ``min_value`` is the resolution floor (everything at or below it
    lands in the underflow bucket and reads back as ``min_value``);
    ``max_value`` the ceiling (everything at or above it lands in the
    overflow bucket and reads back as ``max_value``); ``growth`` the
    per-bucket factor bounding relative error.
    """

    __slots__ = (
        "min_value", "max_value", "growth",
        "_log_growth", "_bounds", "_counts", "_count", "_sum",
    )

    def __init__(
        self,
        min_value: float = 1e-6,
        max_value: float = 1e4,
        growth: float = 1.02,
    ) -> None:
        if min_value <= 0:
            raise ConfigError(f"min_value must be positive, got {min_value}")
        if max_value <= min_value:
            raise ConfigError(
                f"max_value must exceed min_value, got {max_value}"
            )
        if growth <= 1.0:
            raise ConfigError(f"growth must be > 1, got {growth}")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        # bucket 0: underflow (<= min); buckets 1..n: geometric; last:
        # overflow (>= max).
        spans = int(
            math.ceil(
                math.log(self.max_value / self.min_value) / self._log_growth
            )
        )
        self._counts: List[int] = [0] * (spans + 2)
        geometry = (self.min_value, self.max_value, self.growth)
        if geometry not in _BOUNDS:
            _BOUNDS[geometry] = [self.min_value] + [
                min(self.min_value * self.growth**index, self.max_value)
                for index in range(1, spans + 1)
            ] + [self.max_value]
        self._bounds = _BOUNDS[geometry]
        self._count = 0
        self._sum = 0.0

    # ------------------------------------------------------------------
    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        last = len(self._counts) - 1
        if value >= self.max_value:
            return last
        index = 1 + int(
            math.log(value / self.min_value) / self._log_growth
        )
        # Float log can land one bucket low on exact boundaries; the
        # upper-bound contract (read-back >= sample) must still hold.
        if index > last:
            index = last
        while self._bounds[index] < value:
            index += 1
        return index

    # ------------------------------------------------------------------
    def add(self, sample: float) -> None:
        self._counts[self._index(sample)] += 1
        self._count += 1
        self._sum += sample

    def extend(self, samples: Sequence[float]) -> None:
        for sample in samples:
            self.add(sample)

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold another histogram's buckets into this one (in place)."""
        if (self.min_value, self.max_value, self.growth) != (
            other.min_value, other.max_value, other.growth
        ):
            raise ConfigError(
                "cannot merge histograms with different geometries: "
                f"({self.min_value}, {self.max_value}, {self.growth}) vs "
                f"({other.min_value}, {other.max_value}, {other.growth})"
            )
        counts = self._counts
        for index, count in enumerate(other._counts):
            counts[index] += count
        self._count += other._count
        self._sum += other._sum
        return self

    @classmethod
    def merged(
        cls, histograms: Iterable["LogHistogram"]
    ) -> "LogHistogram":
        """A new histogram aggregating every input (e.g. all replicas)."""
        result: Optional[LogHistogram] = None
        for histogram in histograms:
            if result is None:
                result = cls(
                    histogram.min_value,
                    histogram.max_value,
                    histogram.growth,
                )
            result.merge(histogram)
        return result if result is not None else cls()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Samples observed (every sample is counted, none are held)."""
        return self._count

    @property
    def mean(self) -> float:
        """Exact running mean (bucketing never touches the sum)."""
        return self._sum / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Upper bound of the bucket holding the nearest-rank sample.

        Always ``>=`` the exact percentile and within one bucket width
        of it (``exact <= reported <= exact * growth``).
        """
        if not 0.0 <= p <= 100.0:
            raise ConfigError(f"percentile must be in [0, 100], got {p}")
        if not self._count:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * self._count - 1e-9))
        cumulative = 0
        for index, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= rank:
                return self._bounds[index]
        return self.max_value  # pragma: no cover - counts always cover

    def summary(self) -> Dict[str, float]:
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
            "count": float(self._count),
        }

    # ------------------------------------------------------------------
    def nonzero_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, count) for every touched bucket, in order."""
        return [
            (self._bounds[index], count)
            for index, count in enumerate(self._counts)
            if count
        ]


__all__ = ["LogHistogram"]
