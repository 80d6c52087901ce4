"""A Zipf-distributed term vocabulary.

Web text is famously Zipfian; drawing document terms from a Zipf law makes
the inverted index realistically skewed — a few terms chain enormous URL
lists (and churn every round), while the long tail rarely changes.  That
skew is what exercises Bifrost's per-entry deduplication on inverted
entries.
"""

from __future__ import annotations

import bisect
import random
from typing import List

from repro.errors import ConfigError


class ZipfVocabulary:
    """``size`` terms ranked by frequency, sampled by inverse CDF."""

    def __init__(self, size: int, exponent: float = 1.1, seed: int = 2019) -> None:
        if size < 1:
            raise ConfigError(f"vocabulary size must be >= 1, got {size}")
        if exponent <= 0:
            raise ConfigError(f"Zipf exponent must be positive, got {exponent}")
        self.size = size
        self.exponent = exponent
        self._random = random.Random(seed)
        self._terms = [f"term{rank:06d}" for rank in range(size)]
        weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
        total = sum(weights)
        cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        cumulative[-1] = 1.0  # guard against float drift
        self._cumulative = cumulative

    def __len__(self) -> int:
        return self.size

    def sample(self) -> str:
        """Draw one term from the Zipf distribution."""
        point = self._random.random()
        rank = bisect.bisect_left(self._cumulative, point)
        return self._terms[min(rank, self.size - 1)]

    def sample_document(self, length: int) -> List[str]:
        """Draw a document body of ``length`` terms."""
        if length < 1:
            raise ConfigError(f"document length must be >= 1, got {length}")
        return [self.sample() for _ in range(length)]
