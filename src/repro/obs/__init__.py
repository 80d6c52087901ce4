"""Observability: metrics, traces, and the fleet-health telemetry stack.

* :mod:`repro.obs.registry` — :class:`MetricsRegistry`, dotted-name live
  counter views with snapshots, prefix queries, and delta diffing;
* :mod:`repro.obs.tracer` — :class:`Tracer`, simulated-time hierarchical
  spans with JSON / Chrome ``trace_event`` export and per-stage summary;
* :mod:`repro.obs.timeseries` — :class:`TimeSeriesRecorder`, bounded
  ring-buffer sampling of a registry with windowed deltas and rates;
* :mod:`repro.obs.hist` — :class:`LogHistogram`, mergeable log-bucketed
  percentile histograms (HDR-style, fixed memory);
* :mod:`repro.obs.health` — gauge and SLO burn-rate alerting plus
  fault/alert joins for detection-latency (MTTD/MTTR) accounting;
* :mod:`repro.obs.profiler` — per-stage resource attribution over tracer
  spans with flamegraph-style JSON export;
* :mod:`repro.obs.runner` — ``repro observe``'s one-cycle harness
  (imported lazily; it depends on :mod:`repro.core`).
"""

from repro.obs.health import (
    AlertEvent,
    BurnRateRule,
    GaugeRule,
    HealthEngine,
    default_burn_rules,
    default_gauge_rules,
    health_scores,
    join_detections,
)
from repro.obs.hist import LogHistogram
from repro.obs.profiler import flamegraph, profile_tracer
from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.timeseries import RecorderConfig, TimeSeriesRecorder
from repro.obs.tracer import Instant, Span, Tracer, TraceTrack

__all__ = [
    "AlertEvent",
    "BurnRateRule",
    "GaugeRule",
    "HealthEngine",
    "Instant",
    "LogHistogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "RecorderConfig",
    "Span",
    "TimeSeriesRecorder",
    "TraceTrack",
    "Tracer",
    "default_burn_rules",
    "default_gauge_rules",
    "flamegraph",
    "health_scores",
    "join_detections",
    "profile_tracer",
]
