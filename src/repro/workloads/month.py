"""The one-month production trace behind Figures 9 and 10.

The paper analyzes a month of system logs covering 10 index versions with
daily deduplication ratios swinging between ~23% and ~80%.  We synthesize
a 30-day schedule with that range and shape: a smooth seasonal swell (low
dedup early, a mid-month peak near 80%) plus day-to-day jitter, and one
hard dip (the paper's "early day of the month" at 23%).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError


@dataclass(frozen=True)
class MonthlyTraceConfig:
    """Shape of the synthesized month.

    ``dip_day``/``peak_day`` default to the paper's day 3 and day 15,
    clamped into the schedule for shorter runs (a 10-day trace peaks on
    day 10).  An *explicit* day outside ``[1, days]`` is a configuration
    error — it used to be accepted silently, producing a month with the
    paper's 23% dip quietly missing.
    """

    days: int = 30
    min_dedup: float = 0.23
    max_dedup: float = 0.80
    jitter: float = 0.05
    dip_day: Optional[int] = None  # the early-month 23% dip (default day 3)
    peak_day: Optional[int] = None  # the mid-month ~80% peak (default day 15)
    seed: int = 9

    def __post_init__(self) -> None:
        if self.days < 1:
            raise ConfigError("days must be >= 1")
        if not 0.0 <= self.min_dedup < self.max_dedup <= 1.0:
            raise ConfigError("need 0 <= min_dedup < max_dedup <= 1")
        if not 0.0 <= self.jitter < 0.5:
            raise ConfigError("jitter must be in [0, 0.5)")
        for name, default in (("dip_day", 3), ("peak_day", 15)):
            value = getattr(self, name)
            if value is None:
                object.__setattr__(self, name, min(default, self.days))
            elif not 1 <= value <= self.days:
                raise ConfigError(
                    f"{name}={value} is outside the schedule [1, {self.days}]"
                )


@dataclass(frozen=True)
class DaySpec:
    """One day's planned update."""

    day: int
    dedup_ratio: float

    @property
    def mutation_rate(self) -> float:
        """The corpus mutation rate producing this dedup ratio."""
        return 1.0 - self.dedup_ratio


class MonthlyTrace:
    """Generates the per-day dedup-ratio schedule."""

    def __init__(self, config: MonthlyTraceConfig | None = None) -> None:
        self.config = config or MonthlyTraceConfig()
        self._random = random.Random(self.config.seed)

    def days(self) -> List[DaySpec]:
        """The full month's schedule, day 1 through ``days``."""
        config = self.config
        mid = (config.min_dedup + config.max_dedup) / 2.0
        amplitude = (config.max_dedup - config.min_dedup) / 2.0
        schedule: List[DaySpec] = []
        for day in range(1, config.days + 1):
            # Seasonal swell peaking at peak_day.
            phase = (day - config.peak_day) / config.days * 2.0 * math.pi
            base = mid + amplitude * math.cos(phase)
            noisy = base + self._random.uniform(-config.jitter, config.jitter)
            # Dip after peak: when clamping lands both on the same day
            # (a days<=3 trace), the paper's hard 23% dip wins.
            if day == config.peak_day:
                noisy = config.max_dedup
            if day == config.dip_day:
                noisy = config.min_dedup
            ratio = min(config.max_dedup, max(config.min_dedup, noisy))
            schedule.append(DaySpec(day=day, dedup_ratio=ratio))
        return schedule


def run_fig9(days: int) -> Tuple[Dict[str, object], object]:
    """The Figure 9 experiment: a bootstrap, then one update cycle per
    scheduled day on a backbone slow enough that update time tracks the
    bytes dedup saves.

    Returns the report (per-day dedup ratio and update time, and their
    Pearson correlation) and the live system, whose cycle reports the
    quick report reads further.
    """
    from repro.analysis.stats import pearson_correlation
    from repro.workloads.chaos import build_chaos_system, row

    system = build_chaos_system(backbone_bps=100_000.0)
    system.run_update_cycle()
    rows = [
        {
            "day": day.day,
            **row(
                system.run_update_cycle(mutation_rate=day.mutation_rate),
                "dedup_ratio", "update_time_s",
            ),
        }
        for day in MonthlyTrace(MonthlyTraceConfig(days=days)).days()
    ]
    data = {
        "days": rows,
        "pearson_r": pearson_correlation(
            [r["dedup_ratio"] for r in rows], [r["update_time_s"] for r in rows]
        ),
    }
    return data, system
