"""The DirectLoad system: build -> dedup -> deliver -> store -> release.

One :class:`DirectLoad` instance stands up the entire paper in simulation:
the build data center's pipeline, Bifrost (dedup + slicing + scheduled
transmission over the monitored backbone), a Mint cluster in each of the
six data centers, bounded version retention with oldest-version deletion,
and a gray release gate in front of fleet-wide activation.

:meth:`DirectLoad.run_pipelined_cycles` is the update cycle: a train of
versions, each one's generation overlapping its predecessor's delivery
tail.  :meth:`DirectLoad.run_update_cycle` is a train of one and returns
that cycle's report — the unit every Figure 9/10 experiment sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bifrost.channels import build_topology
from repro.bifrost.dedup import Deduplicator
from repro.bifrost.encoding import SliceDecodes, WireEncoder
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
        #: each slice's wire stream is decoded once for all its receivers
        topology = self.topology
        decodes = SliceDecodes({
            kind: sum(len(topology.receivers(r, kind)) for r in topology.regions)
            for kind in IndexKind
        })
        self.clusters: Dict[str, MintCluster] = {
            dc: MintCluster(dc, self.config.mint, self._engine_factory, decodes)
            for dc in self.topology.all_data_centers()
        }
        self.pipeline.register_metrics(self.metrics)
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
        """Build and roll out one new index version end to end: a train
        of one (see :meth:`run_pipelined_cycles`)."""
        return self.run_pipelined_cycles([mutation_rate])[0]

    def run_pipelined_cycles(
        self, specs: Sequence[Optional[float]]
    ) -> List[UpdateCycleReport]:
        """Run a train of update cycles, one per spec, each version's
        generation pipelined against its predecessor's delivery.

        ``specs`` is one corpus mutation rate per version (``None`` uses
        the config's default).  This is the one definition of a cycle —
        build -> dedup -> slice -> [encode] -> schedule -> transmit ->
        evict -> gray release -> activate, every stage inside a tracer
        span — and a *serial* month is N trains of one.  Each cycle
        runs as a simulation process; one shared kernel drive covers the
        whole train, so version N+1's generation window opens one
        ``generation_window_s`` after version N's did — while N's tail
        slices are still in flight — instead of waiting for N's delivery
        and gray release to finish.  (A version's last slice is released
        at the window's end, so a delivery never finishes inside its
        window and the wait costs a train of one nothing.)

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

        Failure: a cycle that raises — in a stage, or in a cluster's
        ingest of one of its arrivals — ends the train from that version
        on: it, and each follower the error then reaches through a gate,
        is retired at every cluster (what is still in flight drops as
        stale on arrival); versions ahead of it finish.  The first error
        is raised only once every process of the train has ended, so the
        next train delivers exactly its own versions — the first of them
        whole, since the build DC forgets a predecessor the stores never
        got (DESIGN.md, "Update cycles: one engine").

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
        config = self.config
        count = len(specs)
        # Evaluated once, up front: inside the processes version 1 only
        # installs at its own finalize, long after cycle 2 built.
        bootstrap = not self.versions.live_versions
        gen_gates = [sim.event() for _ in range(count)]
        fin_gates = [sim.event() for _ in range(count)]
        reports: List[UpdateCycleReport] = []
        #: the version each cycle built, once it has (what a failure retires)
        built: List[Optional[int]] = [None] * count
        #: what ended each failed or cancelled cycle, in the order they ended
        failures: List[Exception] = []

        def wait(gate):
            """Wait for a predecessor's gate; it carries the error that
            ended the predecessor, if one did, and that ends this cycle."""
            error = yield gate
            if error is not None:
                raise error

        def retire(version: int) -> None:
            for cluster in self.clusters.values():
                cluster.drop_version(version)

        def cycle(index: int, mutation_rate: Optional[float]):
            track = f"cycle:{index}"

            def span(name: str, **attrs):
                return tracer.span(name, track=track, **attrs)

            yield from wait(gen_gates[index])
            with span("cycle") as cycle_span:
                first = bootstrap and index == 0
                with span("build", first=first):
                    if first:
                        dataset = self.pipeline.build_version()
                    else:
                        dataset = self.pipeline.advance_and_build(mutation_rate)
                version = built[index] = dataset.version
                cycle_span.attrs["version"] = version

                with span(
                    "dedup",
                    version=version,
                    mode="whole" if config.dedup_enabled else "off",
                ):
                    if not config.dedup_enabled:
                        to_deliver = dataset
                        dedup_ratio = 0.0
                        saving = 0.0
                        bytes_before = dataset.total_bytes
                    else:
                        result = self.deduplicator.process(dataset)
                        to_deliver = result.dataset
                        dedup_ratio = result.dedup_ratio
                        saving = result.bandwidth_saving_ratio
                        bytes_before = result.bytes_before

                with span("slice", version=version):
                    raw_slices = self.slicer.make_slices(to_deliver)

                if self.wire_encoder is not None:
                    with span("encode", version=version, slices=len(raw_slices)):
                        self.wire_encoder.encode_slices(raw_slices)

                with span("schedule", slices=len(raw_slices)):
                    slices = self.scheduler.schedule(
                        raw_slices, start_time=sim.now
                    )

                delivered_keys = [0]
                ingest_errors: List[Exception] = []

                def ingest(dc: str, item) -> None:
                    try:
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
                    except Exception as error:
                        # Kept for the cycle to raise once its other
                        # deliveries have ended; retired now, they drop
                        # as stale instead of landing.
                        ingest_errors.append(error)
                        retire(version)

                with span(
                    "transmit", version=version, slices=len(slices)
                ) as transmit_span:
                    delivery = self.transport.deliver_version(
                        slices,
                        on_arrival=ingest,
                        run=False,
                        parent_span=transmit_span,
                    )
                    # One generation window later the build DC is free:
                    # open the next version's window while this one's
                    # deliveries keep flowing.
                    yield sim.timeout(config.generation_window_s)
                    if index + 1 < count:
                        gen_gates[index + 1].succeed()
                    yield sim.all_of(delivery.processes)
                    if ingest_errors:
                        raise ingest_errors[0]
                self.last_delivery = delivery

                if index > 0:
                    yield from wait(fin_gates[index - 1])
                with span("evict"):
                    evicted = self.versions.install(version)
                    for old_version in evicted:
                        retire(old_version)

                promoted, inconsistency = self._gray_release(
                    version, dedup_ratio, track
                )

                report = UpdateCycleReport(
                    version=version,
                    entries_built=dataset.entry_count,
                    dedup_ratio=dedup_ratio,
                    bandwidth_saving_ratio=saving,
                    bytes_before_dedup=bytes_before,
                    bytes_sent=delivery.bytes_sent,
                    update_time_s=delivery.update_time_s,
                    miss_ratio=delivery.miss_ratio,
                    retransmissions=delivery.retransmissions,
                    detoured=delivery.detoured,
                    keys_delivered=delivered_keys[0],
                    evicted_versions=evicted,
                    inconsistency_rate=inconsistency,
                    promoted=promoted,
                )
            # The cycle span is closed now: fold its trace into the report.
            report.stages = tracer.stage_summary(root_id=cycle_span.span_id)
            reports.append(report)
            self.reports.append(report)

        def to_its_end(index: int, mutation_rate: Optional[float]):
            """Run one cycle; whatever ends it, its follower is released."""
            ended_by: Optional[Exception] = None
            try:
                yield from cycle(index, mutation_rate)
            except Exception as error:
                # Recorded, not re-raised: the train raises it once every
                # cycle has ended.  (Retiring again a version one of its
                # arrivals already retired finds nothing left to drop.)
                ended_by = error
                failures.append(error)
                if built[index] is not None:
                    retire(built[index])
            finally:
                if index + 1 < count and not gen_gates[index + 1].triggered:
                    gen_gates[index + 1].succeed(ended_by)
                fin_gates[index].succeed(ended_by)

        processes = [
            sim.process(to_its_end(index, spec))
            for index, spec in enumerate(specs)
        ]
        gen_gates[0].succeed()
        started = sim.now
        sim.run(until=sim.all_of(processes))
        self.last_pipelined_makespan_s = sim.now - started
        if failures:
            # The build DC's predecessor state describes a version the
            # stores never got: the next version ships whole.
            self.deduplicator.forget()
            if self.wire_encoder is not None:
                self.wire_encoder.forget()
            raise failures[0]
        return reports

    # ------------------------------------------------------------------
    def _gray_release(
        self, version: int, dedup_ratio: float, track: str
    ) -> tuple[bool, float]:
        """Advance the gray DC, measure, then promote or roll back, traced
        on the cycle's ``track``.

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
