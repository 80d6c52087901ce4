"""Bounded time-series recording over the metrics registry.

A :class:`TimeSeriesRecorder` is a simulation process that snapshots a
:class:`~repro.obs.registry.MetricsRegistry` every ``interval_s``
simulated seconds into a fixed-capacity ring.  That turns the registry's
point-in-time counters — including :meth:`register_array` row views —
into queryable history: windowed deltas and rates per node, group, and
link, which is what the health engine's burn-rate windows read.

Memory is bounded by design (``capacity`` samples, oldest evicted
first), matching the telemetry tiering the disaster-recovery literature
argues for: cheap always-on collection on the hot path, detailed
analysis deferred to report time.

Subscribers (``recorder.subscribe(fn)``) run synchronously after each
sample with ``(at_s, values)`` — the alert engine evaluates its rules
there, so detection latency is bounded by the sampling interval.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError

#: called after every sample with (simulated time, collected values)
SampleHook = Callable[[float, Dict[str, float]], None]


@dataclass(frozen=True)
class RecorderConfig:
    """Sampling cadence and ring bounds."""

    #: simulated seconds between samples
    interval_s: float = 0.25
    #: ring capacity in samples (memory bound; oldest evicted first)
    capacity: int = 4096
    #: restrict sampling to one dotted-name subtree (None = everything)
    prefix: Optional[str] = None

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigError(
                f"sampling interval must be positive, got {self.interval_s}"
            )
        if self.capacity < 2:
            raise ConfigError(
                f"ring needs at least 2 samples, got {self.capacity}"
            )


class TimeSeriesRecorder:
    """Samples a registry on the sim clock into a bounded ring."""

    def __init__(
        self, sim, registry, config: Optional[RecorderConfig] = None
    ) -> None:
        self.sim = sim
        self.registry = registry
        self.config = config or RecorderConfig()
        #: (at_s, {name: value}) in time order, bounded by capacity
        self.samples: Deque[Tuple[float, Dict[str, float]]] = deque(
            maxlen=self.config.capacity
        )
        self._hooks: List[SampleHook] = []
        self._stopped = False
        self._process = None

    # ------------------------------------------------------------------
    def subscribe(self, hook: SampleHook) -> None:
        """Run ``hook(at_s, values)`` after every sample."""
        self._hooks.append(hook)

    def sample_now(self) -> Dict[str, float]:
        """Take one sample immediately (also used by the loop)."""
        values = self.registry.collect(self.config.prefix)
        at = self.sim.now
        self.samples.append((at, values))
        for hook in self._hooks:
            hook(at, values)
        return values

    def start(self):
        """Spawn the sampling loop; returns the process (idempotent)."""
        if self._process is None:
            self._stopped = False
            self._process = self.sim.process(self._run())
        return self._process

    def stop(self) -> None:
        """The loop exits at its next wake-up; the ring survives."""
        self._stopped = True
        self._process = None

    def _run(self):
        while not self._stopped:
            self.sample_now()
            yield self.sim.timeout(self.config.interval_s)

    # ------------------------------------------------------------------
    @property
    def sample_count(self) -> int:
        return len(self.samples)

    def _window_base(
        self, window_s: float, at: float
    ) -> Optional[Tuple[float, Dict[str, float]]]:
        """The newest sample at or before ``at - window_s``.

        Falls back to the oldest held sample when the ring does not
        reach back that far (partial window at run start / after
        eviction), so early reads degrade gracefully instead of lying.
        """
        target = at - window_s
        base = None
        for sample in self.samples:
            if sample[0] > target:
                break
            base = sample
        if base is None and self.samples:
            base = self.samples[0]
        return base

    def window_delta(
        self, name: str, window_s: float, at: Optional[float] = None
    ) -> float:
        """Counter growth over the trailing window (missing reads 0.0)."""
        if window_s <= 0:
            raise ConfigError(f"window must be positive, got {window_s}")
        if not self.samples:
            return 0.0
        at_s, values = self.samples[-1]
        if at is not None:
            at_s = at
        base = self._window_base(window_s, at_s)
        if base is None or base[0] >= at_s:
            return 0.0
        return values.get(name, 0.0) - base[1].get(name, 0.0)

    def window_rate(
        self, name: str, window_s: float, at: Optional[float] = None
    ) -> float:
        """Counter growth per second over the trailing window.

        The divisor is the *actual* covered span (partial windows at run
        start divide by what the ring holds, not the nominal window).
        """
        if window_s <= 0:
            raise ConfigError(f"window must be positive, got {window_s}")
        if not self.samples:
            return 0.0
        at_s, values = self.samples[-1]
        if at is not None:
            at_s = at
        base = self._window_base(window_s, at_s)
        if base is None:
            return 0.0
        span = at_s - base[0]
        if span <= 0:
            return 0.0
        delta = values.get(name, 0.0) - base[1].get(name, 0.0)
        return delta / span


__all__ = ["RecorderConfig", "SampleHook", "TimeSeriesRecorder"]
