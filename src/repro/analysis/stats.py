"""Small statistics helpers used by benches and tests."""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigError


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson's r — Figure 9 asserts update time anti-correlates with
    the dedup ratio, so the bench needs a correlation measure."""
    if len(xs) != len(ys):
        raise ConfigError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ConfigError("need at least two points for a correlation")
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)
