"""The DirectLoad system: build -> dedup -> deliver -> store -> release.

One :class:`DirectLoad` instance stands up the entire paper in simulation:
the build data center's pipeline, Bifrost (dedup + slicing + scheduled
transmission over the monitored backbone), a Mint cluster in each of the
six data centers, bounded version retention with oldest-version deletion,
and a gray release gate in front of fleet-wide activation.

:meth:`DirectLoad.run_update_cycle` performs one full version update and
returns the cycle's report — the unit every Figure 9/10 experiment sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bifrost.channels import build_topology
from repro.bifrost.dedup import Deduplicator, DedupResult
from repro.bifrost.encoding import WireEncoder
from repro.bifrost.monitor import NetworkMonitor
from repro.bifrost.scheduler import StreamScheduler
from repro.bifrost.slices import Slicer
from repro.bifrost.transport import BifrostTransport, DeliveryReport
from repro.core.config import DirectLoadConfig
from repro.core.release import (
    GrayObservation,
    GrayRelease,
    estimate_inconsistency,
)
from repro.core.version import VersionManager
from repro.errors import KeyNotFoundError, ReproError
from repro.indexing.builders import IndexBuildPipeline, PipelineConfig
from repro.indexing.corpus import SyntheticWebCorpus
from repro.indexing.types import IndexKind
from repro.indexing.vocabulary import ZipfVocabulary
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.mint.cluster import MintCluster
from repro.obs import MetricsRegistry, Tracer
from repro.obs.tracer import MAIN_TRACK
from repro.qindb.engine import QinDB, QinDBConfig
from repro.simulation.kernel import Simulator


@dataclass
class UpdateCycleReport:
    """Everything one version's update produced."""

    version: int
    entries_built: int
    dedup_ratio: float
    bandwidth_saving_ratio: float
    bytes_before_dedup: int
    bytes_sent: int
    update_time_s: float
    miss_ratio: float
    retransmissions: int
    detoured: int
    keys_delivered: int
    evicted_versions: List[int]
    inconsistency_rate: float
    promoted: bool
    #: per-stage simulated-time breakdown of this cycle's trace
    #: ({stage, count, total_s, share} rows, in pipeline order)
    stages: List[Dict[str, object]] = field(default_factory=list)

    @property
    def throughput_kps(self) -> float:
        """Delivered keys per second, in units of 10^4 keys/s (Fig 10a)."""
        if self.update_time_s <= 0:
            return 0.0
        return self.keys_delivered / self.update_time_s / 1e4


@dataclass
class _Generation:
    """What the generation stages (build -> dedup -> slice -> schedule)
    hand to the delivery half of a cycle."""

    dataset: object
    version: int
    slices: List
    dedup_ratio: float
    saving: float
    bytes_before: int


class DirectLoad:
    """The full index-updating system over one simulator."""

    def __init__(self, config: DirectLoadConfig | None = None) -> None:
        self.config = config or DirectLoadConfig()
        self.sim = Simulator()
        #: the system's two observability planes: every component
        #: registers live counter views here, and the whole update cycle
        #: is traced in simulated time (see :mod:`repro.obs`)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self.sim, enabled=self.config.tracing_enabled)
        self.topology = build_topology(self.sim, self.config.topology)
        self.monitor = NetworkMonitor(self.topology)
        self.monitor.start()
        self.transport = BifrostTransport(
            self.topology, self.monitor, self.config.transport,
            tracer=self.tracer,
        )
        vocabulary = ZipfVocabulary(
            self.config.vocabulary_size, seed=self.config.seed
        )
        self.corpus = SyntheticWebCorpus(
            doc_count=self.config.doc_count,
            vocabulary=vocabulary,
            doc_length=self.config.doc_length,
            mutation_rate=self.config.mutation_rate,
            seed=self.config.seed,
        )
        self.pipeline = IndexBuildPipeline(
            self.corpus,
            PipelineConfig(
                forward_value_bytes=self.config.forward_value_bytes,
                summary_value_bytes=self.config.summary_value_bytes,
            ),
        )
        self.deduplicator = Deduplicator()
        self.slicer = Slicer(target_slice_bytes=self.config.slice_bytes)
        #: wire codec between the slicer and the scheduler — packed slice
        #: payloads are delta+DEFLATE encoded for transmission and decoded
        #: back at each receiving cluster (None when wire_encoding is off)
        self.wire_encoder: Optional[WireEncoder] = (
            WireEncoder() if self.config.wire_encoding else None
        )
        self.scheduler = StreamScheduler(self.config.generation_window_s)
        self.clusters: Dict[str, MintCluster] = {
            dc: MintCluster(dc, self.config.mint, self._engine_factory)
            for dc in self.topology.all_data_centers()
        }
        self.topology.register_metrics(self.metrics)
        self.monitor.register_metrics(self.metrics)
        self.transport.register_metrics(self.metrics)
        if self.wire_encoder is not None:
            self.wire_encoder.register_metrics(self.metrics)
        for dc, cluster in self.clusters.items():
            cluster.register_metrics(self.metrics)
            # Ingestion spans share one track per data center, matching
            # the per-DC "ingest" spans the cycle callback opens.
            cluster.bind_trace(self.tracer.track(f"ingest:{dc}"))
        self.versions = VersionManager(self.config.max_live_versions)
        self.reports: List[UpdateCycleReport] = []
        #: raw transport report of the most recent cycle (delay analysis)
        self.last_delivery: Optional[DeliveryReport] = None
        #: the most recent gray release (its serving map routes queries)
        self.release: Optional[GrayRelease] = None
        #: simulated seconds the most recent :meth:`run_pipelined_cycles`
        #: train took end to end (first build to last activation)
        self.last_pipelined_makespan_s: float = 0.0

    def _engine_factory(self, node_name: str):
        capacity = self.config.mint.node_capacity_bytes
        if self.config.engine == "qindb":
            engine = QinDB.with_capacity(
                capacity, config=QinDBConfig(segment_bytes=4 * 1024 * 1024)
            )
            # Engine spans (GC sweeps, checkpoints) run on the node's own
            # device clock, so they get a dedicated foreign-clock track.
            engine.bind_trace(
                self.tracer.track(f"engine:{node_name}", clock=engine.device)
            )
            return engine
        return LSMEngine.with_capacity(
            capacity,
            config=LSMConfig(
                memtable_bytes=1024 * 1024, level1_max_bytes=4 * 1024 * 1024
            ),
        )

    # ------------------------------------------------------------------
    def run_update_cycle(
        self, mutation_rate: Optional[float] = None
    ) -> UpdateCycleReport:
        """Build and roll out one new index version end to end.

        Every stage runs inside a tracer span (build -> dedup -> slice ->
        schedule -> transmit -> evict -> gray release -> activate), so
        one cycle leaves a complete simulated-time trace behind —
        :meth:`stage_summary` folds it into the per-stage breakdown.
        """
        tracer = self.tracer
        with tracer.span("cycle") as cycle_span:
            first_version = not self.versions.live_versions
            generation = self._generate_stages(
                tracer.span, mutation_rate, first_version
            )
            version = generation.version
            cycle_span.attrs["version"] = version
            delivered_keys = [0]

            def ingest(dc: str, item) -> None:
                with tracer.span(
                    "ingest",
                    track=f"ingest:{dc}",
                    dc=dc,
                    slice=item.slice_id,
                    entries=len(item.entries),
                ):
                    delivered_keys[0] += self.clusters[dc].ingest_slice(item)

            with tracer.span(
                "transmit", version=version, slices=len(generation.slices)
            ):
                delivery: DeliveryReport = self.transport.deliver_version(
                    generation.slices, on_arrival=ingest
                )
            self.last_delivery = delivery

            with tracer.span("evict"):
                evicted = self.versions.install(version)
                for old_version in evicted:
                    for cluster in self.clusters.values():
                        cluster.drop_version(old_version)

            promoted, inconsistency = self._gray_release(
                version, generation.dedup_ratio
            )

            report = self._make_report(
                generation, delivery, delivered_keys[0], evicted,
                inconsistency, promoted,
            )
        # The cycle span is closed now: fold its trace into the report.
        report.stages = self.tracer.stage_summary(
            root_id=cycle_span.span_id
        )
        self.reports.append(report)
        return report

    def run_pipelined_cycles(
        self, specs: Sequence[Optional[float]]
    ) -> List[UpdateCycleReport]:
        """Run one update cycle per spec with generation pipelined
        against delivery.

        ``specs`` is one corpus mutation rate per version (``None`` uses
        the config's default), exactly the values the same days would
        pass to sequential :meth:`run_update_cycle` calls.  Each cycle
        runs as a simulation process; one shared kernel drive covers all
        of them, so version N+1's generation window opens one
        ``generation_window_s`` after version N's did — while N's tail
        slices are still in flight — instead of waiting for N's delivery
        and gray release to finish.

        Version safety:

        * **Generation** is chained: cycle N+1's build starts exactly one
          window after cycle N's (builds are sequential at the build DC,
          and the corpus mutates in version order).
        * **Finalization** (install -> evict -> gray release -> activate)
          is chained in version order via per-version gates, and runs
          only after that version's own deliveries all completed — so
          the gray release gates on its own arrivals only, and
          :meth:`VersionManager.install` always sees versions advance.
        * **Ingestion** tolerates any interleaving: QinDB keys by
          ``(key, version)``, and a slice of an already-retired version
          is dropped at the cluster (see
          :meth:`~repro.mint.cluster.MintCluster.ingest_slice`).

        Tracing: each cycle's spans live on their own ``cycle:{index}``
        track, deliveries and ingests parent under that cycle's spans
        explicitly, and each report's stage summary folds only its own
        cycle span's descendants — correct even when spans interleave.

        Returns the per-version reports in version order; the wall of
        simulated time the whole train took is recorded in
        :attr:`last_pipelined_makespan_s`.
        """
        if not specs:
            return []
        sim = self.sim
        tracer = self.tracer
        count = len(specs)
        # Evaluated once, up front: inside the processes version 1 only
        # installs at its own finalize, long after cycle 2 built.
        bootstrap = not self.versions.live_versions
        gen_gates = [sim.event() for _ in range(count)]
        fin_gates = [sim.event() for _ in range(count)]
        reports: List[Optional[UpdateCycleReport]] = [None] * count

        def cycle(index: int, mutation_rate: Optional[float]):
            track = f"cycle:{index}"

            def span(name: str, parent=None, **attrs):
                return tracer.span(name, track=track, parent=parent, **attrs)

            yield gen_gates[index]
            with span("cycle", pipelined=True) as cycle_span:
                first = bootstrap and index == 0
                generation = self._generate_stages(span, mutation_rate, first)
                version = generation.version
                cycle_span.attrs["version"] = version
                delivered_keys = [0]

                def ingest(dc: str, item) -> None:
                    with tracer.span(
                        "ingest",
                        track=f"ingest:{dc}",
                        parent=transmit_span,
                        dc=dc,
                        slice=item.slice_id,
                        entries=len(item.entries),
                    ):
                        delivered_keys[0] += self.clusters[dc].ingest_slice(
                            item
                        )

                with span(
                    "transmit", version=version, slices=len(generation.slices)
                ) as transmit_span:
                    delivery = self.transport.deliver_version(
                        generation.slices,
                        on_arrival=ingest,
                        run=False,
                        parent_span=transmit_span,
                    )
                    # One generation window later the build DC is free:
                    # open the next version's window while this one's
                    # deliveries keep flowing.
                    yield sim.timeout(self.config.generation_window_s)
                    if index + 1 < count:
                        gen_gates[index + 1].succeed()
                    yield sim.all_of(delivery.processes)
                self.last_delivery = delivery

                if index > 0:
                    yield fin_gates[index - 1]
                with span("evict"):
                    evicted = self.versions.install(version)
                    for old_version in evicted:
                        for cluster in self.clusters.values():
                            cluster.drop_version(old_version)

                promoted, inconsistency = self._gray_release(
                    version, generation.dedup_ratio, track=track
                )

                report = self._make_report(
                    generation, delivery, delivered_keys[0], evicted,
                    inconsistency, promoted,
                )
            report.stages = tracer.stage_summary(root_id=cycle_span.span_id)
            reports[index] = report
            self.reports.append(report)
            fin_gates[index].succeed()

        processes = [
            sim.process(cycle(index, spec)) for index, spec in enumerate(specs)
        ]
        gen_gates[0].succeed()
        started = sim.now
        sim.run(until=sim.all_of(processes))
        self.last_pipelined_makespan_s = sim.now - started
        return [report for report in reports if report is not None]

    # ------------------------------------------------------------------
    def _generate_stages(
        self, span, mutation_rate: Optional[float], first_version: bool
    ) -> _Generation:
        """Build -> dedup -> slice -> schedule, traced via ``span``.

        ``span`` opens tracer spans on the caller's track (the main
        track for the serial cycle, a per-version ``cycle:{i}`` track
        for pipelined ones); the stage names and order are identical
        either way.
        """
        with span("build", first=first_version):
            if first_version:
                dataset = self.pipeline.build_version()
            else:
                dataset = self.pipeline.advance_and_build(mutation_rate)
        version = dataset.version

        with span(
            "dedup",
            version=version,
            mode="whole" if self.config.dedup_enabled else "off",
        ):
            if not self.config.dedup_enabled:
                to_deliver = dataset
                dedup_ratio = 0.0
                saving = 0.0
                bytes_before = dataset.total_bytes
            else:
                dedup_result: DedupResult = self.deduplicator.process(dataset)
                to_deliver = dedup_result.dataset
                dedup_ratio = dedup_result.dedup_ratio
                saving = dedup_result.bandwidth_saving_ratio
                bytes_before = dedup_result.bytes_before

        with span("slice", version=version):
            raw_slices = self.slicer.make_slices(to_deliver)

        if self.wire_encoder is not None:
            with span("encode", version=version, slices=len(raw_slices)):
                self.wire_encoder.encode_slices(raw_slices)

        with span("schedule", slices=len(raw_slices)):
            slices = self.scheduler.schedule(raw_slices, start_time=self.sim.now)
        return _Generation(
            dataset=dataset,
            version=version,
            slices=slices,
            dedup_ratio=dedup_ratio,
            saving=saving,
            bytes_before=bytes_before,
        )

    def _make_report(
        self,
        generation: _Generation,
        delivery: DeliveryReport,
        keys_delivered: int,
        evicted: List[int],
        inconsistency: float,
        promoted: bool,
    ) -> UpdateCycleReport:
        return UpdateCycleReport(
            version=generation.version,
            entries_built=generation.dataset.entry_count,
            dedup_ratio=generation.dedup_ratio,
            bandwidth_saving_ratio=generation.saving,
            bytes_before_dedup=generation.bytes_before,
            bytes_sent=delivery.bytes_sent,
            update_time_s=delivery.update_time_s,
            miss_ratio=delivery.miss_ratio,
            retransmissions=delivery.retransmissions,
            detoured=delivery.detoured,
            keys_delivered=keys_delivered,
            evicted_versions=evicted,
            inconsistency_rate=inconsistency,
            promoted=promoted,
        )

    # ------------------------------------------------------------------
    def _gray_release(
        self, version: int, dedup_ratio: float, track: str = MAIN_TRACK
    ) -> tuple[bool, float]:
        """Advance the gray DC, measure, then promote or roll back.

        The latency probe samples only keys ``version`` itself ingested
        (``cluster.version_keys[version]``) — the gray gate judges a
        version on its own arrivals, never a concurrent neighbour's.
        """
        with self.tracer.span(
            "gray_release", track=track,
            version=version, gray_dc=self.config.gray_dc,
        ) as span:
            release = GrayRelease(
                self.config.gray_dc, self.config.release_thresholds
            )
            self.release = release
            previous = self.versions.active_version
            release.start(version, self.topology.all_data_centers(), previous)
            inconsistency = (
                0.0
                if previous is None
                else estimate_inconsistency(
                    duplicate_ratio=dedup_ratio,
                    cross_region_share=self.config.cross_region_share,
                )
            )
            p99 = self._sample_gray_latency(version)
            observation = GrayObservation(
                inconsistency_rate=inconsistency,
                error_rate=0.0,
                p99_latency_s=p99,
            )
            if release.observe(observation):
                with self.tracer.span("activate", track=track, version=version):
                    release.promote()
                    self.versions.activate(version)
                span.attrs["outcome"] = "promoted"
                return True, inconsistency
            release.rollback()
            span.attrs["outcome"] = "rolled_back"
            return False, inconsistency

    def _sample_gray_latency(self, version: int, samples: int = 32) -> float:
        """p99 of real engine reads at the gray DC for the new version.

        Samples go through :meth:`NodeGroup.get` — the same least-loaded
        balanced read path production queries take — rather than pinning
        the rendezvous-top replica, so the p99 both *exercises* the
        balancing and doesn't skew one node's device clock with all the
        probe traffic.  The served latency is the probe's delta on
        whichever replica's clock advanced.
        """
        cluster = self.clusters[self.config.gray_dc]
        keys = cluster.version_keys.get(version, [])
        if not keys:
            return 0.0
        step = max(1, len(keys) // samples)
        latencies = []
        for key in keys[::step][:samples]:
            group = cluster.group_for(key)
            before = {node.name: node.engine.device.now for node in group.nodes}
            try:
                group.get(key, version)
            except ReproError:
                continue
            latencies.append(
                max(
                    node.engine.device.now - before[node.name]
                    for node in group.nodes
                )
            )
        if not latencies:
            return 0.0
        latencies.sort()
        return latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]

    # ------------------------------------------------------------------
    def query(self, dc: str, kind: IndexKind, key: bytes) -> bytes:
        """Front-end read against whatever version ``dc`` serves.

        During a gray window the gray DC serves the new version while
        the rest of the fleet stays on the old one — the per-DC serving
        map is the release's, which is exactly how cross-region
        inconsistency arises.
        """
        from repro.core.release import ReleasePhase

        version: Optional[int] = None
        if (
            self.release is not None
            and self.release.phase in (ReleasePhase.GRAY, ReleasePhase.ACTIVE)
            and dc in self.release.serving
        ):
            version = self.release.serving[dc]
        else:
            # Rolled back (or no release yet): the last *activated*
            # version serves, if any.
            version = self.versions.active_version
        if version is None:
            raise KeyNotFoundError("no active version yet")
        return self.clusters[dc].query(kind, key, version)

    def fleet_stats(self) -> Dict[str, object]:
        """Aggregate storage counters across all data centers.

        Scalar counters sum; mapping-valued counters (``gets_per_node``)
        merge — node names are unique fleet-wide (prefixed with their
        cluster's name), so the merge is a union.
        """
        totals: Dict[str, object] = {}
        for cluster in self.clusters.values():
            for name, value in cluster.stats().items():
                if isinstance(value, dict):
                    merged = totals.setdefault(name, {})
                    for sub_name, sub_value in value.items():
                        merged[sub_name] = merged.get(sub_name, 0) + sub_value
                else:
                    totals[name] = totals.get(name, 0) + value
        return totals

    def stage_summary(self) -> List[Dict[str, object]]:
        """Per-stage simulated-time breakdown of the most recent cycle."""
        return self.tracer.stage_summary(root_name="cycle")
