"""The four benchmark workloads, their oracle and their metrics.

Each workload builds its ``DirectLoadConfig`` here, explicitly, runs in
one process on one thread, and fills a :class:`Run` with what it
measured.  Host quantities (wall seconds of this machine) and simulated
quantities (seconds and bytes of the modelled fleet, which repeat
exactly for a fixed seed) are kept apart all the way to the output.

Work scales with ``--seconds``: the sizes below are what the reference
machine times at about :data:`REFERENCE_SECONDS` of timed region, and a
different ``--seconds`` multiplies cycle and request counts — never the
fleet shape, so the layer shares stay what the README says they are.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import random
import resource
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bifrost.channels import TopologyConfig
from repro.core.config import DirectLoadConfig
from repro.core.directload import DirectLoad, UpdateCycleReport
from repro.errors import OverloadError, ReproError
from repro.indexing.builders import IndexBuildPipeline
from repro.mint.cluster import MintConfig, storage_key
from repro.obs.hist import LogHistogram
from repro.serving import ServingFrontend
from repro.workloads.serving import FlashCrowdConfig

from bench import trace
from bench.pacer import Pacer

#: ``--seconds`` at which the sizes in this file are the work done
REFERENCE_SECONDS = 20
#: reads the oracle makes after the timed region
ORACLE_SAMPLES = 2000
#: the frontend's latency objective (``ServingConfig.slo_p99_s``), in ms
SLO_P99_MS = 50.0
#: a rung sustains its rate when it refuses at most this share
MAX_SHED_RATIO = 0.01
MB = 1024 * 1024


# ----------------------------------------------------------------------
# What one execution collects
# ----------------------------------------------------------------------
@dataclass
class Region:
    """One timed stretch of host time (see :mod:`bench.pacer`)."""

    name: str
    #: start to end, calibration units included
    elapsed_s: float
    cpu_s: float
    #: wall seconds without the calibration units
    wall_s: float
    #: ``wall_s`` rescaled to the reference machine's speed
    reference_s: float


@dataclass
class Rung:
    """One open-loop read rate and what the frontend made of it."""

    qps_per_node: float
    requests: int
    completed: int
    shed: int
    #: refused while offered load was deliberately above what the fleet
    #: is sized for (the overload rung, a flash crowd): admission control
    #: doing its job, so not counted as failed operations
    shed_in_burst: int
    not_found: int
    errors: int
    wrong_bytes: int
    batches: int
    batched_keys: int
    p50_ms: float
    p99_ms: float
    sim_duration_s: float
    working_set_keys: int
    working_set_bytes: int
    histogram: List[Tuple[float, int]] = field(repr=False, default_factory=list)

    @property
    def sustained(self) -> bool:
        """Did the fleet keep up: few refusals, p99 within the objective."""
        return (
            self.shed <= MAX_SHED_RATIO * self.requests
            and self.p99_ms <= SLO_P99_MS
        )


@dataclass
class Run:
    """Everything one workload execution measured."""

    workload: str
    seed: int
    seconds: float
    scale: str
    recorder: Optional[trace.SpanRecorder]
    oracle: "Oracle"
    pacer: Pacer = field(default_factory=Pacer)
    system: Optional[DirectLoad] = None
    setup_s: float = 0.0
    regions: List[Region] = field(default_factory=list)
    #: reports of the cycles the delivery metrics describe
    cycles: List[UpdateCycleReport] = field(default_factory=list)
    #: reference seconds those cycles took
    delivery_s: float = 0.0
    wire_bytes_sent: int = 0
    rungs: List[Rung] = field(default_factory=list)
    #: reference seconds the rungs took
    read_s: float = 0.0
    #: the delivery metrics describe the bootstrap load, inside set-up
    delivery_in_setup: bool = False
    frontends: List[ServingFrontend] = field(default_factory=list)
    counters_before: Dict[str, float] = field(default_factory=dict)
    counters_after: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    trace_origin: float = 0.0

    def units(self, base: int, minimum: int = 1) -> int:
        """``base`` units of work at the reference length, scaled."""
        return max(minimum, round(base * self.seconds / REFERENCE_SECONDS))

    @property
    def timed_cycles(self) -> List[UpdateCycleReport]:
        """Cycles that ran inside a timed region."""
        return [] if self.delivery_in_setup else self.cycles

    @property
    def timed_elapsed_s(self) -> float:
        return sum(region.elapsed_s for region in self.regions)

    @property
    def timed_reference_s(self) -> float:
        return sum(region.reference_s for region in self.regions)

    @property
    def wall_over_cpu(self) -> float:
        """Above ~1.1 the process was descheduled while being timed."""
        return _ratio(
            self.timed_elapsed_s, sum(region.cpu_s for region in self.regions)
        )

    def timed(self, name: str) -> "_Timed":
        return _Timed(self, name)


class Stopwatch:
    """Times a block in wall and reference seconds, bracketing it with
    calibration units."""

    def __init__(self, pacer: Pacer) -> None:
        self.pacer = pacer
        self.elapsed_s = self.cpu_s = self.wall_s = self.reference_s = 0.0

    def __enter__(self) -> "Stopwatch":
        self.pacer.calibrate()
        self._cpu = time.process_time()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        ended = time.perf_counter()
        self.cpu_s = time.process_time() - self._cpu
        self.pacer.calibrate()
        self.elapsed_s = ended - self.started
        self.wall_s, self.reference_s = self.pacer.measure(
            self.started, ended
        )


class _Timed(Stopwatch):
    """One timed region of a run.

    Collects garbage first so a collection owed by set-up is not billed
    to the region, and switches the span recorder on for the block.
    """

    def __init__(self, run: Run, name: str) -> None:
        super().__init__(run.pacer)
        self.run = run
        self.name = name

    def __enter__(self) -> "_Timed":
        run = self.run
        gc.collect()
        if not run.regions:
            run.counters_before = counters(run)
        super().__enter__()
        if not run.regions:
            run.trace_origin = self.started
        if run.recorder is not None:
            run.recorder.active = True
        return self

    def __exit__(self, *exc) -> None:
        run = self.run
        if run.recorder is not None:
            run.recorder.active = False
        super().__exit__(*exc)
        run.regions.append(
            Region(
                self.name, self.elapsed_s, self.cpu_s,
                self.wall_s, self.reference_s,
            )
        )
        run.counters_after = counters(run)
        run.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )


# ----------------------------------------------------------------------
# Correctness oracle
# ----------------------------------------------------------------------
class Oracle:
    """What every live ``(key, version)`` must read back as.

    A pass-through wrapper on ``IndexBuildPipeline.build_version`` keeps
    each dataset the build pipeline returns (one call per cycle); the
    datasets are pre-dedup, so they hold every key's full value at every
    version.  Nothing else of the program is consulted.
    """

    def __init__(self) -> None:
        self.datasets: Dict[int, object] = {}
        self._expected: Dict[int, Dict[bytes, bytes]] = {}

    def installed(self):
        def make(original: Callable) -> Callable:
            def build_version(pipeline):
                dataset = original(pipeline)
                self.datasets[dataset.version] = dataset
                return dataset

            return build_version

        return trace.patched(IndexBuildPipeline, "build_version", make)

    def expected(self, version: int) -> Dict[bytes, bytes]:
        """Storage key -> value of ``version`` (built on first use)."""
        table = self._expected.get(version)
        if table is None:
            table = self._expected[version] = {
                storage_key(kind, entry.key): entry.value
                for kind, entries in self.datasets[version].entries.items()
                for entry in entries
            }
        return table

    def check(self, system: DirectLoad, seed: int) -> Dict[str, int]:
        """Read a seeded sample of live records back; count what is off.

        A value equal to the requested version's dataset value also rules
        out a read served from another version, whenever the two differ.
        """
        rng = random.Random(seed * 2654435761 % 2**32 + 17)
        clusters = sorted(system.clusters.items())
        live = system.versions.live_versions
        mismatched = 0
        discriminating = 0
        for _ in range(ORACLE_SAMPLES):
            dc, cluster = clusters[rng.randrange(len(clusters))]
            version = live[rng.randrange(len(live))]
            keys = cluster.version_keys[version]
            key = keys[rng.randrange(len(keys))]
            want = self.expected(version)[key]
            try:
                got = cluster.get(key, version)
            except ReproError:
                got = None
            if got != want:
                mismatched += 1
            if any(
                self.expected(other).get(key) != want
                for other in live
                if other != version
            ):
                discriminating += 1
        under_replicated = sum(
            len(cluster.under_replicated()) for _dc, cluster in clusters
        )
        return {
            "sampled": ORACLE_SAMPLES,
            "mismatched": mismatched,
            "version_discriminating": discriminating,
            "under_replicated": under_replicated,
        }


# ----------------------------------------------------------------------
# Open-loop read load: generated from the seed, replayed inside the sim
# ----------------------------------------------------------------------
@dataclass
class Lane:
    """One data center's request schedule and what came back."""

    dc: str
    cluster: object
    gaps: array
    #: uniform draws; rank = int(count ** u) - 1 is the zipf(1) shape
    draws: array
    #: hot-set index, or -1 for a zipf pick
    hots: array
    #: 1 while offered load is deliberately above the rung's rate
    bursts: array
    shed_in_burst: int = 0
    wrong_bytes: int = 0
    seen: Dict[bytes, int] = field(default_factory=dict)


def make_schedule(
    system: DirectLoad,
    seed: int,
    qps_per_node: float,
    requests: int,
    flash: Optional[FlashCrowdConfig] = None,
    overload: bool = False,
) -> List[Lane]:
    """Arrival gaps, key ranks and hot-set picks for one rung.

    One Poisson client per data center at ``qps_per_node`` x the DC's
    nodes; ``flash`` multiplies the rate and aims most requests at a few
    hot keys for a window in the middle, as ``repro serve`` does.
    """
    lanes = []
    clusters = sorted(system.clusters.items())
    per_dc = requests // len(clusters)
    for index, (dc, cluster) in enumerate(clusters):
        rng = random.Random(
            (seed * 7919 + index) * 104729 + int(qps_per_node)
        )
        rate = qps_per_node * len(cluster.all_nodes)
        planned_s = per_dc / rate
        flash_from = planned_s * flash.start_fraction if flash else 0.0
        flash_to = flash_from + flash.duration_s if flash else 0.0
        gaps, draws = array("d"), array("d")
        hots, bursts = array("b"), array("b")
        now = 0.0
        surging = False
        for _ in range(per_dc):
            gap = rng.expovariate(rate * flash.multiplier if surging else rate)
            now += gap
            surging = flash is not None and flash_from <= now < flash_to
            gaps.append(gap)
            draws.append(rng.random())
            if surging and rng.random() < flash.hot_probability:
                hots.append(rng.randrange(flash.hot_keys))
            else:
                hots.append(-1)
            bursts.append(1 if surging or overload else 0)
        lanes.append(Lane(dc, cluster, gaps, draws, hots, bursts))
    return lanes


class ReplayClients:
    """Replays pre-generated schedules as one sim process per DC.

    The loop is open in simulated time: a request is issued when its
    arrival gap elapses, whatever the fleet is doing, so the generator
    is never late; the frontend stamps latency from that arrival.
    """

    def __init__(
        self,
        system: DirectLoad,
        frontend: ServingFrontend,
        oracle: Oracle,
        pacer: Pacer,
        lanes: List[Lane],
        hot_keys: int,
    ) -> None:
        self.system = system
        self.frontend = frontend
        self.oracle = oracle
        self.pacer = pacer
        self.lanes = lanes
        self.hot_keys = hot_keys
        self._hot: Dict[Tuple[str, int], List[bytes]] = {}

    def start(self) -> List:
        sim = self.system.sim
        return [sim.process(self._client(lane)) for lane in self.lanes]

    def _client(self, lane: Lane):
        gaps = lane.gaps
        tick = self.pacer.tick
        for index in range(len(gaps)):
            yield gaps[index]
            if not index & 15:
                tick()
            self.issue(lane, index)

    def issue(self, lane: Lane, index: int) -> None:
        """Submit request ``index`` of ``lane`` against the active version."""
        version = self.system.versions.active_version
        keys = lane.cluster.version_keys[version]
        hot = lane.hots[index]
        if hot >= 0:
            hot_set = self._hot.get((lane.dc, version))
            if hot_set is None:
                hot_set = self._hot[(lane.dc, version)] = sorted(set(keys))[
                    : self.hot_keys
                ]
            key = hot_set[hot % len(hot_set)]
        else:
            count = len(keys)
            key = keys[min(count - 1, int(count ** lane.draws[index]) - 1)]
        try:
            event = self.frontend.try_submit(lane.dc, key, version)
        except OverloadError:
            lane.shed_in_burst += lane.bursts[index]
            return
        want = self.oracle.expected(version)[key]

        def check(done, want=want, lane=lane, key=key) -> None:
            value = done.value
            if value is not None and value != want:
                lane.wrong_bytes += 1
            lane.seen[key] = len(want)

        event.callbacks.append(check)


def interpolated_percentile(
    buckets: Sequence[Tuple[float, int]], growth: float, p: float
) -> float:
    """Percentile of a ``LogHistogram``, interpolated inside its bucket.

    ``LogHistogram.percentile`` reads back the bucket's upper bound, a
    2% staircase; spreading the bucket's samples evenly between its
    bounds resolves changes smaller than one stair.
    """
    total = sum(count for _upper, count in buckets)
    if not total:
        return 0.0
    rank = p / 100.0 * total
    below = 0
    for upper, count in buckets:
        if below + count >= rank:
            lower = upper / growth
            return lower + (upper - lower) * (rank - below) / count
        below += count
    return buckets[-1][0]


def run_rung(
    run: Run,
    frontend: ServingFrontend,
    lanes: List[Lane],
    qps_per_node: float,
    hot_keys: int = 1,
    alongside: Optional[Callable[[], None]] = None,
) -> Rung:
    """Offer one schedule to ``frontend`` and wait for every reply.

    ``alongside`` runs with the clients already started (the pipelined
    update train of ``serve_churn``); it drives the simulator itself.
    """
    system = run.system
    sim = system.sim
    started = sim.now
    clients = ReplayClients(
        system, frontend, run.oracle, run.pacer, lanes, hot_keys
    )
    processes = clients.start()
    if alongside is not None:
        alongside()
    pending = [process for process in processes if not process.processed]
    if pending:
        sim.run(until=sim.all_of(pending))
    frontend.drain()
    fleet = frontend.report()["fleet"]
    merged = LogHistogram.merged(frontend.latency.values())
    buckets = merged.nonzero_buckets()
    return Rung(
        qps_per_node=qps_per_node,
        requests=fleet["requests"],
        completed=fleet["admitted"],
        shed=fleet["shed"],
        shed_in_burst=sum(lane.shed_in_burst for lane in lanes),
        not_found=fleet["not_found"],
        errors=fleet["errors"],
        wrong_bytes=sum(lane.wrong_bytes for lane in lanes),
        batches=fleet["batches"],
        batched_keys=fleet["batched_keys"],
        p50_ms=interpolated_percentile(buckets, merged.growth, 50.0) * 1e3,
        p99_ms=interpolated_percentile(buckets, merged.growth, 99.0) * 1e3,
        sim_duration_s=sim.now - started,
        working_set_keys=sum(len(lane.seen) for lane in lanes),
        working_set_bytes=sum(sum(lane.seen.values()) for lane in lanes),
        histogram=buckets,
    )


# ----------------------------------------------------------------------
# Counters read at the edges of the timed region
# ----------------------------------------------------------------------
def counters(run: Run) -> Dict[str, float]:
    """Cumulative fleet counters (simulated clock; exact for a seed)."""
    system = run.system
    fleet = system.fleet_stats()
    engines = [
        node.engine
        for cluster in system.clusters.values()
        for node in cluster.all_nodes
    ]
    devices = [engine.device.counters for engine in engines]
    reports = [frontend.report()["fleet"] for frontend in run.frontends]
    return {
        "replica_puts": fleet["puts"],
        "multi_gets": fleet["multi_gets"],
        "failover_gets": fleet["failover_gets"],
        "missing_gets": fleet["missing_gets"],
        "put_batches": fleet["put_batches"],
        "put_records": fleet["batched_puts"],
        "get_batches": fleet["get_batches"],
        "get_records": fleet["batched_gets"],
        "delete_records": fleet["deletes"],
        "user_bytes_written": fleet["user_bytes_written"],
        "disk_used_bytes": fleet["disk_used_bytes"],
        "gc_runs": sum(engine.gc_runs for engine in engines),
        "gc_bytes_reappended": sum(
            engine.gc_bytes_reappended for engine in engines
        ),
        "aof_bytes_appended": sum(
            engine.aofs.bytes_appended for engine in engines
        ),
        "memtable_items": sum(len(engine.memtable) for engine in engines),
        "memtable_bytes": sum(
            engine.memtable.approximate_bytes for engine in engines
        ),
        "device_write_ops": sum(c.total_write_ops for c in devices),
        "device_bytes_written": sum(c.total_bytes_written for c in devices),
        "device_host_pages_written": sum(
            c.host_pages_written for c in devices
        ),
        "device_pages_written": sum(c.total_pages_written for c in devices),
        "device_host_pages_read": sum(c.host_pages_read for c in devices),
        "device_bytes_read": sum(c.total_bytes_read for c in devices),
        "device_erases": sum(c.blocks_erased for c in devices),
        "device_busy_s": sum(c.busy_time_s for c in devices),
        "group_gets": sum(
            group.gets
            for cluster in system.clusters.values()
            for group in cluster.groups
        ),
        "integrity_records": sum(
            cluster.integrity.counters.records_tracked
            for cluster in system.clusters.values()
            if cluster.integrity is not None
        ),
        "slices_parked": sum(
            cluster.slices_parked for cluster in system.clusters.values()
        ),
        "wire_bytes_sent": system.transport.total_wire_bytes_sent,
        "payload_bytes_sent": system.transport.total_payload_bytes_sent,
        "retransmissions": system.transport.total_retransmissions,
        "sim_events": system.sim.events_processed,
        "program_spans": len(system.tracer.spans),
        "serving_batches": sum(r["batches"] for r in reports),
        "serving_batched_keys": sum(r["batched_keys"] for r in reports),
        "serving_shed": sum(r["shed"] for r in reports),
        "serving_not_found": sum(r["not_found"] for r in reports),
        "serving_errors": sum(r["errors"] for r in reports),
    }


def live_key_replicas(system: DirectLoad) -> int:
    """Live ``(key, version)`` records times the replicas each has."""
    return sum(
        len(keys) * cluster.config.replica_count
        for cluster in system.clusters.values()
        for keys in cluster.version_keys.values()
    )


# ----------------------------------------------------------------------
# Fleet shapes
# ----------------------------------------------------------------------
def _mint(groups: int) -> MintConfig:
    return MintConfig(
        group_count=groups,
        nodes_per_group=3,
        node_capacity_bytes=256 * MB,
    )


def fleet_ingest_config(seed: int, scale: str) -> DirectLoadConfig:
    """72 nodes, ~100k keys per cycle, small values, fast backbone."""
    smoke = scale == "smoke"
    return DirectLoadConfig(
        doc_count=300 if smoke else 6400,
        vocabulary_size=600 if smoke else 8000,
        doc_length=24,
        summary_value_bytes=256,
        forward_value_bytes=128,
        slice_bytes=256 * 1024,
        generation_window_s=5.0,
        topology=TopologyConfig(backbone_bps=64e6),
        mint=_mint(groups=4),
        tracing_enabled=False,
        seed=seed,
    )


def retention_month_config(seed: int, scale: str) -> DirectLoadConfig:
    """18 nodes, the config-default large values, wire codec and program
    tracer on, and a backbone slow enough that delivery is bandwidth-
    bound: an update ends ~10% after its generation window closes.  Any
    slower and the pipelined train's backlog grows without bound, which
    makes update time hypersensitive to the corpus (seed).

    The vocabulary is small (every term stays in ~10+ documents), so no
    inverted-index term ever vanishes: see
    :data:`MAX_CYCLES_BEFORE_TERMS_RETURN`."""
    smoke = scale == "smoke"
    return DirectLoadConfig(
        doc_count=100 if smoke else 800,
        vocabulary_size=40 if smoke else 200,
        doc_length=24,
        slice_bytes=256 * 1024,
        generation_window_s=5.0,
        topology=TopologyConfig(backbone_bps=2.5e6),
        mint=_mint(groups=1),
        wire_encoding=True,
        tracing_enabled=True,
        seed=seed,
    )


def serve_config(seed: int, scale: str) -> DirectLoadConfig:
    """36 nodes (two groups per DC, so multi_get partitions), 1 KiB
    summaries, a backbone that keeps ``serve_churn``'s update train
    window-bound; shared by ``serve_static`` and ``serve_churn``."""
    smoke = scale == "smoke"
    return DirectLoadConfig(
        doc_count=100 if smoke else 800,
        vocabulary_size=400 if smoke else 3000,
        doc_length=24,
        summary_value_bytes=1024,
        forward_value_bytes=256,
        slice_bytes=64 * 1024,
        generation_window_s=5.0,
        topology=TopologyConfig(backbone_bps=8e6),
        mint=_mint(groups=2),
        tracing_enabled=False,
        seed=seed,
    )


#: changed-value-heavy mutation rates of ``retention_month``, cycled
RETENTION_RATES = (0.55, 0.7, 0.6, 0.65, 0.5, 0.7)
#: nominal / 16x / overload, in reads per second per live node
STATIC_RUNGS = (60.0, 960.0, 15360.0)
CHURN_QPS_PER_NODE = 240.0
READBACK_QPS_PER_NODE = 60.0


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
#: Caps on update cycles, whatever ``--seconds`` asks for.  The program's
#: deduplicator never forgets a key that is absent from a version, so an
#: inverted-index term that vanishes, stays away until its last stored
#: value is evicted and collected (five versions), and comes back
#: unchanged is shipped value-less and can no longer be read (found by
#: this benchmark: ``retention_month`` shape with a 3000-term vocabulary,
#: seed 10).  The contract wants workloads on which no operation fails,
#: so shapes whose rare terms vanish stay below six versions, and
#: ``retention_month`` uses a vocabulary small enough that none does.
MAX_CYCLES_BEFORE_TERMS_RETURN = 4


def _set_up(
    run: Run, config: DirectLoadConfig, frontends: int = 1
) -> Tuple[UpdateCycleReport, "Stopwatch", List[ServingFrontend]]:
    """Set-up: build the fleet, load version 1, build the frontends.

    Returns the bootstrap cycle's report and its own stopwatch too,
    for the workload whose only delivery is that cycle.
    """
    with Stopwatch(run.pacer) as setup:
        run.system = DirectLoad(config)
        with Stopwatch(run.pacer) as bootstrap:
            report = run.system.run_update_cycle()
        for _ in range(frontends):
            run.frontends.append(
                ServingFrontend(run.system.sim, run.system.clusters)
            )
    run.setup_s = setup.reference_s
    return report, bootstrap, run.frontends


def _deliver(run: Run, name: str, body: Callable[[], None]) -> None:
    """Time ``body`` as the region the delivery metrics describe."""
    transport = run.system.transport
    wire_before = transport.total_wire_bytes_sent
    with run.timed(name) as timed:
        body()
    run.delivery_s = timed.reference_s
    run.wire_bytes_sent = transport.total_wire_bytes_sent - wire_before


def _readback(run: Run, frontend: ServingFrontend, requests: int) -> None:
    """Serve a nominal-rate rung off what the ingest region just wrote.

    The ingest workloads have no reader of their own; this short second
    region is where their read metrics come from, so a write-path change
    that slows lookups shows on the workload that made it.
    """
    lanes = make_schedule(
        run.system, run.seed, READBACK_QPS_PER_NODE, requests
    )
    with run.timed("readback") as timed:
        run.rungs.append(
            run_rung(run, frontend, lanes, READBACK_QPS_PER_NODE)
        )
    run.read_s = timed.reference_s


def fleet_ingest(run: Run) -> None:
    _report, _bootstrap, (frontend,) = _set_up(
        run, fleet_ingest_config(run.seed, run.scale)
    )
    system = run.system
    cycles = min(run.units(2), MAX_CYCLES_BEFORE_TERMS_RETURN)

    def ingest() -> None:
        for _ in range(cycles):
            run.cycles.append(system.run_update_cycle(mutation_rate=0.3))

    _deliver(run, "ingest", ingest)
    _readback(run, frontend, run.units(36_000, minimum=600))


def retention_month(run: Run) -> None:
    _report, _bootstrap, (frontend,) = _set_up(
        run, retention_month_config(run.seed, run.scale)
    )
    cycles = run.units(12, minimum=2)
    rates = [RETENTION_RATES[i % len(RETENTION_RATES)] for i in range(cycles)]
    _deliver(
        run, "ingest",
        lambda: run.cycles.extend(run.system.run_pipelined_cycles(rates)),
    )
    _readback(run, frontend, run.units(36_000, minimum=600))


def serve_static(run: Run) -> None:
    report, bootstrap, frontends = _set_up(
        run, serve_config(run.seed, run.scale), frontends=len(STATIC_RUNGS)
    )
    # No delivery happens in the timed region: the delivery metrics of
    # this workload describe the bootstrap full load, inside set-up.
    run.delivery_in_setup = True
    run.cycles.append(report)
    run.delivery_s = bootstrap.reference_s
    run.wire_bytes_sent = run.system.transport.total_wire_bytes_sent
    per_rung = run.units(80_000, minimum=600)
    schedules = [
        make_schedule(
            run.system, run.seed, qps, per_rung,
            overload=qps == STATIC_RUNGS[-1],
        )
        for qps in STATIC_RUNGS
    ]
    with run.timed("reads") as timed:
        for frontend, lanes, qps in zip(frontends, schedules, STATIC_RUNGS):
            run.rungs.append(run_rung(run, frontend, lanes, qps))
    run.read_s = timed.reference_s


def serve_churn(run: Run) -> None:
    _report, _bootstrap, (frontend,) = _set_up(
        run, serve_config(run.seed, run.scale)
    )
    system = run.system
    cycles = min(run.units(4), MAX_CYCLES_BEFORE_TERMS_RETURN)
    # The default surge (x8, 80% on 8 hot keys) cut from 3 s to 1 s: at
    # this rate 3 s alone is 207k requests, and the reads have to outlast
    # the update train (the eviction is at its end) inside the time cap.
    flash = FlashCrowdConfig(duration_s=1.0)
    lanes = make_schedule(
        system, run.seed, CHURN_QPS_PER_NODE,
        run.units(240_000, minimum=1200), flash=flash,
    )

    def updates() -> None:
        run.cycles.extend(system.run_pipelined_cycles([0.3] * cycles))

    _deliver(
        run, "reads+updates",
        lambda: run.rungs.append(
            run_rung(
                run, frontend, lanes, CHURN_QPS_PER_NODE,
                hot_keys=flash.hot_keys, alongside=updates,
            )
        ),
    )
    run.read_s = run.delivery_s


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "fleet_ingest": fleet_ingest,
    "retention_month": retention_month,
    "serve_static": serve_static,
    "serve_churn": serve_churn,
}


def execute(
    name: str,
    seed: int,
    seconds: float,
    scale: str,
    traced: bool,
    trace_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run one workload in this process and return its full result.

    A traced run writes its raw spans to ``trace_path`` when given.
    """
    recorder = trace.SpanRecorder() if traced else None
    oracle = Oracle()
    run = Run(name, seed, seconds, scale, recorder, oracle)
    with contextlib.ExitStack() as stack:
        stack.enter_context(oracle.installed())
        if recorder is not None:
            stack.enter_context(recorder.installed())
        # outermost, so a calibration unit runs before a span opens
        stack.enter_context(run.pacer.installed())
        WORKLOADS[name](run)
    verdict = oracle.check(run.system, seed)
    if recorder is not None and trace_path is not None:
        recorder.write(trace_path, run.trace_origin)
    return summarise(run, verdict)


# ----------------------------------------------------------------------
# From a Run to named metrics
# ----------------------------------------------------------------------
def sustained_qps_per_node(run: Run) -> float:
    """Highest rung that refused <=1% of its requests and held the p99
    objective (0 when none did)."""
    return max(
        (rung.qps_per_node for rung in run.rungs if rung.sustained),
        default=0.0,
    )


def end_to_end(run: Run) -> Dict[str, float]:
    after = run.counters_after
    keys = sum(report.keys_delivered for report in run.cycles)
    reads = sum(rung.completed for rung in run.rungs)
    nominal = run.rungs[0]  # every workload's first rung is its nominal one
    return {
        "setup_s": run.setup_s,
        "delivered_keys_per_s": keys / run.delivery_s,
        "served_reads_per_s": reads / run.read_s,
        "peak_rss_mb": run.peak_rss_mb,
        "sim_update_time_s": sum(
            report.update_time_s for report in run.cycles
        ) / len(run.cycles),
        "wire_bytes_per_key": run.wire_bytes_sent / keys,
        "write_amp": (
            after["device_bytes_written"] / after["user_bytes_written"]
        ),
        "disk_bytes_per_live_key": (
            after["disk_used_bytes"] / live_key_replicas(run.system)
        ),
        "sim_read_p50_ms": nominal.p50_ms,
        "sim_read_p99_ms": nominal.p99_ms,
        "sustained_qps_per_node": sustained_qps_per_node(run),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(run: Run) -> Dict[str, float]:
    """Per-layer metrics of a traced run (bench.* ratios that need the
    untraced run are filled in by the caller)."""
    aggregate = run.recorder.aggregate()
    seconds = trace.self_time_by_metric(aggregate)
    before, after = run.counters_before, run.counters_after
    delta = {name: after[name] - before[name] for name in after}
    wall = run.timed_elapsed_s
    cycles = run.timed_cycles
    entries = sum(report.entries_built for report in cycles)
    metrics = dict(seconds)
    metrics.update({
        "indexing.entries_built": entries,
        "bifrost.dedup_ratio": _ratio(
            sum(r.dedup_ratio * r.entries_built for r in cycles), entries
        ),
        "bifrost.slices": run.recorder.result_sizes.get(
            "Slicer.make_slices", 0
        ),
        "bifrost.wire_ratio": _ratio(
            delta["wire_bytes_sent"], delta["payload_bytes_sent"]
        ),
        "bifrost.retransmissions": delta["retransmissions"],
        "bifrost.slices_parked": delta["slices_parked"],
        "mint.put_batches": trace.calls_of(aggregate, "NodeGroup.put_batch"),
        "mint.replica_puts": delta["replica_puts"],
        "mint.replica_puts_per_s": _ratio(delta["replica_puts"], wall),
        "mint.multi_gets": delta["multi_gets"],
        "mint.failover_gets": delta["failover_gets"],
        "mint.missing_gets": delta["missing_gets"],
        "mint.versions_evicted": sum(
            len(r.evicted_versions) for r in cycles
        ),
        "mint.integrity_records": delta["integrity_records"],
        "qindb.put_batches": delta["put_batches"],
        "qindb.put_records": delta["put_records"],
        "qindb.mean_put_batch": _ratio(
            delta["put_records"], delta["put_batches"]
        ),
        "qindb.get_batches": delta["get_batches"],
        "qindb.get_records": delta["get_records"],
        "qindb.mean_get_batch": _ratio(
            delta["get_records"], delta["get_batches"]
        ),
        "qindb.delete_records": delta["delete_records"],
        "qindb.gc_runs": delta["gc_runs"],
        "qindb.gc_bytes_reappended": delta["gc_bytes_reappended"],
        "qindb.gc_reappend_ratio": _ratio(
            delta["gc_bytes_reappended"], delta["aof_bytes_appended"]
        ),
        "qindb.sw_write_amp": _ratio(
            after["aof_bytes_appended"], after["user_bytes_written"]
        ),
        "qindb.memtable_items": after["memtable_items"],
        "qindb.memtable_bytes": after["memtable_bytes"],
        "qindb.device_reads_per_get": _ratio(
            delta["device_host_pages_read"], delta["get_records"]
        ),
        "ssd.write_ops": delta["device_write_ops"],
        "ssd.bytes_written": delta["device_bytes_written"],
        "ssd.read_ops": (
            trace.calls_of(aggregate, "NativeUnit.read")
            + trace.calls_of(aggregate, "NativeUnit.read_many")
        ),
        "ssd.bytes_read": delta["device_bytes_read"],
        "ssd.erases": delta["device_erases"],
        "ssd.hw_write_amp": _ratio(
            after["device_pages_written"], after["device_host_pages_written"]
        ),
        "ssd.busy_sim_s": delta["device_busy_s"],
        "simulation.events": delta["sim_events"],
        "simulation.host_us_per_event": _ratio(
            seconds["simulation.run_self_s"] * 1e6, delta["sim_events"]
        ),
        "serving.batches": delta["serving_batches"],
        "serving.mean_batch": _ratio(
            delta["serving_batched_keys"], delta["serving_batches"]
        ),
        "serving.shed": delta["serving_shed"],
        "serving.not_found": delta["serving_not_found"],
        "serving.errors": delta["serving_errors"],
        "obs.spans_recorded": delta["program_spans"],
        "core.gray_release_reads": delta["group_gets"],
        "bench.unattributed_share": (wall - aggregate["root_s"]) / wall,
        "bench.wall_over_cpu": run.wall_over_cpu,
        "bench.spans": aggregate["spans"],
    })
    return metrics


def sim_digest(run: Run) -> str:
    """SHA-256 over the simulated product statistics.

    Everything a host-only optimisation must leave alone.  The kernel's
    ``events_processed`` is left out on purpose: a kernel optimisation
    may change how many events it takes to simulate the same fleet.
    """
    system = run.system
    digest = hashlib.sha256()

    def feed(*values) -> None:
        digest.update(repr(values).encode())

    for report in run.cycles:
        feed(
            report.version, report.entries_built, report.keys_delivered,
            report.bytes_before_dedup, report.bytes_sent,
            report.update_time_s, report.dedup_ratio,
            report.retransmissions, report.evicted_versions,
            report.promoted,
        )
    fleet = system.fleet_stats()
    feed(sorted(
        (name, value) for name, value in fleet.items()
        if not isinstance(value, dict)
    ))
    transport = system.transport
    feed(
        transport.total_wire_bytes_sent, transport.total_payload_bytes_sent,
        transport.total_retransmissions,
    )
    for rung in run.rungs:
        feed(
            rung.qps_per_node, rung.requests, rung.completed, rung.shed,
            rung.not_found, rung.errors, rung.batches, rung.batched_keys,
            rung.histogram,
        )
    feed(system.sim.now)
    return digest.hexdigest()


def summarise(run: Run, verdict: Dict[str, int]) -> Dict[str, object]:
    """The full result of one execution, JSON-ready."""
    attempted = sum(report.keys_delivered for report in run.timed_cycles)
    failed = verdict["mismatched"] + verdict["under_replicated"]
    for rung in run.rungs:
        attempted += rung.requests
        failed += (
            rung.shed - rung.shed_in_burst
            + rung.errors + rung.not_found + rung.wrong_bytes
        )
    result: Dict[str, object] = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "scale": run.scale,
        "traced": run.recorder is not None,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "correct": failed == 0,
        "oracle": verdict,
        "sim_digest": sim_digest(run),
        "end_to_end": end_to_end(run),
        "regions": [
            {
                "name": r.name, "elapsed_s": r.elapsed_s, "cpu_s": r.cpu_s,
                "wall_s": r.wall_s, "reference_s": r.reference_s,
            }
            for r in run.regions
        ],
        "timed_elapsed_s": run.timed_elapsed_s,
        "timed_reference_s": run.timed_reference_s,
        "wall_over_cpu": run.wall_over_cpu,
        "calibration_units": len(run.pacer.samples),
        "generator_lateness_s": 0.0,
        "cycles": [
            {
                "version": r.version,
                "keys_delivered": r.keys_delivered,
                "update_time_s": r.update_time_s,
                "bytes_sent": r.bytes_sent,
                "dedup_ratio": r.dedup_ratio,
                "evicted_versions": r.evicted_versions,
            }
            for r in run.cycles
        ],
        "rungs": [
            {
                "qps_per_node": rung.qps_per_node,
                "requests": rung.requests,
                "completed": rung.completed,
                "shed": rung.shed,
                "shed_in_burst": rung.shed_in_burst,
                "not_found": rung.not_found,
                "errors": rung.errors,
                "wrong_bytes": rung.wrong_bytes,
                "mean_batch": _ratio(rung.batched_keys, rung.batches),
                "p50_ms": rung.p50_ms,
                "p99_ms": rung.p99_ms,
                "sustained": rung.sustained,
                "sim_duration_s": rung.sim_duration_s,
                "working_set_keys": rung.working_set_keys,
                "working_set_bytes": rung.working_set_bytes,
            }
            for rung in run.rungs
        ],
        "read_cache": "off (DirectLoadConfig cannot enable it)",
    }
    if run.recorder is not None:
        result["per_layer"] = per_layer(run)
    return result
