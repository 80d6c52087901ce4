"""Run an observed DirectLoad cycle: one harness, trace + metrics out.

The runner takes the workloads' one small fleet
(:func:`repro.workloads.chaos.build_chaos_system` — three regions, one
three-node group per data center, whole-value dedup on: large enough
that transmit, ingest, GC and gray release all fire, small enough to
finish in seconds of wall time), runs a few update cycles, and packages
everything the observability layer saw — per-stage simulated-time
breakdown, the registry snapshot, snapshot deltas across the run, and
the Chrome ``trace_event`` export — into a single
:class:`ObservationReport`.

Deliberately *not* imported from ``repro.obs.__init__``: this module
depends on ``repro.core.directload``, which itself imports ``repro.obs``
for the registry and tracer.  Import it directly
(``from repro.obs.runner import observe_cycle``) or via the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.registry import MetricsSnapshot
from repro.obs.tracer import Tracer


@dataclass
class ObservationReport:
    """Everything one observed run produced, ready for rendering."""

    cycles: List[Dict[str, object]]
    stages: List[Dict[str, object]]
    tracer: Tracer
    first_snapshot: MetricsSnapshot
    final_snapshot: MetricsSnapshot
    highlights: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view: cycles, stage table, metric deltas."""
        delta = self.final_snapshot.delta(self.first_snapshot)
        return {
            "cycles": self.cycles,
            "stages": self.stages,
            "highlights": self.highlights,
            "metrics": dict(sorted(self.final_snapshot.values.items())),
            "metrics_delta": dict(sorted(delta.items())),
            "span_count": len(self.tracer.spans),
        }

    def chrome_trace(self) -> Dict[str, object]:
        return self.tracer.to_chrome_trace()


def _highlights(snapshot: MetricsSnapshot) -> Dict[str, float]:
    """Fleet-level rollups of the interesting counter families."""

    def total(prefix: str, leaf: str) -> float:
        return sum(
            value
            for name, value in snapshot.values.items()
            if name.startswith(prefix) and name.endswith("." + leaf)
        )

    return {
        "qindb.user_bytes_written": total("qindb.", "user_bytes_written"),
        "qindb.aof_bytes_appended": total("qindb.", "aof_bytes_appended"),
        "qindb.gc_runs": total("qindb.", "gc_runs"),
        "qindb.read_cache.hits": total("qindb.", "read_cache.hits"),
        "qindb.read_cache.misses": total("qindb.", "read_cache.misses"),
        "qindb.batch.batches": total("qindb.", "batch.batches"),
        "ssd.host_pages_written": total("ssd.", "host_pages_written"),
        "ssd.gc_pages_written": total("ssd.", "gc_pages_written"),
        "bifrost.link_bytes": total("bifrost.link.", "bytes"),
        # Wire-vs-logical byte accounting: equal when wire encoding is
        # off; the encoding rollups read 0 then (nothing registered).
        "bifrost.wire_bytes_sent": total("bifrost.", "wire_bytes_sent"),
        "bifrost.payload_bytes_sent": total("bifrost.", "payload_bytes_sent"),
        "bifrost.encoding.bytes_saved": total("bifrost.", "bytes_saved"),
        "bifrost.wire.deltas_applied": total("mint.", "deltas_applied"),
        "bifrost.wire.slices_parked": total("mint.", "slices_parked"),
        # Tiered integrity: cheap ingest-tier checksums vs the rare
        # audit-tier cryptographic hashes.
        "integrity.ingest_checksums": total("integrity.", "ingest_checksums"),
        "integrity.seal_signatures": total("integrity.", "seal_signatures"),
        "integrity.audit_hashes": total("integrity.", "audit_hashes"),
        "mint.puts": total("mint.", "puts"),
        "mint.recoveries": total("mint.", "recoveries"),
    }


def observe_cycle(
    cycles: int = 2,
    mutation_rate: float = 0.3,
    config=None,
) -> ObservationReport:
    """Run ``cycles`` update cycles under full observation.

    The first cycle bootstraps version 1; later cycles mutate
    ``mutation_rate`` of the corpus so dedup, delta slices, and eviction
    all have work to do.  ``config`` swaps the standard small fleet for
    a custom one.  Returns the packaged :class:`ObservationReport`.
    """
    from repro.core.directload import DirectLoad
    from repro.workloads.chaos import build_chaos_system, row

    system = DirectLoad(config) if config else build_chaos_system()
    first_snapshot = system.metrics.snapshot()
    cycle_rows = [
        row(
            system.run_update_cycle(
                mutation_rate=None if index == 0 else mutation_rate
            ),
            "version", "entries_built", "dedup_ratio", "bytes_sent",
            "update_time_s", "keys_delivered", "promoted",
        )
        for index in range(max(1, cycles))
    ]
    final_snapshot = system.metrics.snapshot()
    return ObservationReport(
        cycles=cycle_rows,
        stages=system.stage_summary(),
        tracer=system.tracer,
        first_snapshot=first_snapshot,
        final_snapshot=final_snapshot,
        highlights=_highlights(final_snapshot),
    )
