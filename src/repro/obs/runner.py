"""Run an observed DirectLoad cycle: one harness, trace + metrics out.

The runner builds a small-but-complete DirectLoad fleet, runs a few
update cycles, and packages everything the observability layer saw —
per-stage simulated-time breakdown, the registry snapshot, snapshot
deltas across the run, and the Chrome ``trace_event`` export — into a
single :class:`ObservationReport`.

Deliberately *not* imported from ``repro.obs.__init__``: this module
depends on ``repro.core.directload``, which itself imports ``repro.obs``
for the registry and tracer.  Import it directly
(``from repro.obs.runner import observe_cycle``) or via the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.registry import MetricsSnapshot
from repro.obs.tracer import Tracer


def observe_config():
    """A small fleet that still exercises every pipeline stage.

    The default three regions of data centers, one three-node group
    each, whole-value dedup on — large enough that transmit, ingest, GC,
    and gray release all fire, small enough to finish in seconds of wall
    time.
    """
    from repro.core.config import DirectLoadConfig
    from repro.mint.cluster import MintConfig

    return DirectLoadConfig(
        doc_count=60,
        vocabulary_size=400,
        doc_length=20,
        summary_value_bytes=512,
        forward_value_bytes=128,
        slice_bytes=64 * 1024,
        generation_window_s=30.0,
        mint=MintConfig(
            group_count=1,
            nodes_per_group=3,
            node_capacity_bytes=48 * 1024 * 1024,
        ),
    )


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
    all have work to do.  Returns the packaged :class:`ObservationReport`.
    """
    from repro.core.directload import DirectLoad

    system = DirectLoad(config or observe_config())
    first_snapshot = system.metrics.snapshot()
    cycle_rows: List[Dict[str, object]] = []
    for index in range(max(1, cycles)):
        rate: Optional[float] = None if index == 0 else mutation_rate
        report = system.run_update_cycle(mutation_rate=rate)
        cycle_rows.append(
            {
                "version": report.version,
                "entries_built": report.entries_built,
                "dedup_ratio": report.dedup_ratio,
                "bytes_sent": report.bytes_sent,
                "update_time_s": report.update_time_s,
                "keys_delivered": report.keys_delivered,
                "promoted": report.promoted,
            }
        )
    final_snapshot = system.metrics.snapshot()
    return ObservationReport(
        cycles=cycle_rows,
        stages=system.stage_summary(),
        tracer=system.tracer,
        first_snapshot=first_snapshot,
        final_snapshot=final_snapshot,
        highlights=_highlights(final_snapshot),
    )
