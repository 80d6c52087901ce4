"""The delivery engine: slices from the origin to every data center.

For each slice and each region, a simulation process:

1. waits until the slice is generated (``available_at``);
2. asks the :class:`~repro.bifrost.monitor.NetworkMonitor` for the best
   route (direct, or detouring through another region's relay group);
3. transmits over each backbone hop's reserved stream sub-link, with the
   receiving relay group re-verifying the checksum — a corrupted slice is
   retransmitted from the origin;
4. fans out from the relay group to the region's data centers (summary
   slices only to the region's summary DC), verifying once more and
   handing the slice to the ingestion callback.

Arrival bookkeeping feeds the paper's two operational metrics: *update
time* (first generation to last arrival) and *miss ratio* (slices taking
over an hour to arrive, SLO 0.6%).
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.bifrost.channels import ORIGIN, Topology, stream_of
from repro.bifrost.monitor import NetworkMonitor
from repro.bifrost.slices import Slice
from repro.errors import (
    ChecksumMismatchError,
    ConfigError,
    DeliveryError,
    LinkPartitionedError,
    RoutingError,
    TransmissionError,
)
from repro.simulation.kernel import Simulator

ArrivalCallback = Callable[[str, Slice], None]


@dataclass(frozen=True)
class TransportConfig:
    """Failure injection and SLO parameters."""

    #: probability a slice is damaged on any single hop
    corruption_probability: float = 0.0
    #: retransmissions before a delivery is abandoned
    max_retransmits: int = 5
    #: per-hop relay processing (checksum + forwarding) time
    relay_processing_s: float = 0.005
    #: a slice arriving later than this after generation is a *miss*
    late_threshold_s: float = 3600.0
    #: consult the monitor for re-routing (False = always direct)
    adaptive_routing: bool = True
    #: route changes tolerated per delivery when links are partitioned
    #: (each failed attempt waits ``reroute_backoff_s`` before retrying)
    max_reroutes: int = 8
    #: wait between reroute attempts while a region is unreachable
    reroute_backoff_s: float = 1.0
    #: "origin-fanout": the origin sends every slice to every region (the
    #: paper's Bifrost).  "p2p": the origin seeds one region per slice and
    #: the seed forwards to its peers — the BitTorrent-style alternative
    #: the paper's related work weighs ("saves 50% bandwidth ... but it is
    #: not reliable"): origin uplink traffic drops to a third, but two of
    #: three regions now sit behind an extra lossy hop.
    distribution: str = "origin-fanout"
    seed: int = 63

    def __post_init__(self) -> None:
        if not 0.0 <= self.corruption_probability < 1.0:
            raise ConfigError("corruption probability must be in [0, 1)")
        if self.max_retransmits < 0:
            raise ConfigError("max_retransmits must be >= 0")
        if self.max_reroutes < 0:
            raise ConfigError("max_reroutes must be >= 0")
        if self.reroute_backoff_s <= 0:
            raise ConfigError("reroute_backoff_s must be positive")
        if self.late_threshold_s <= 0:
            raise ConfigError("late threshold must be positive")
        if self.distribution not in ("origin-fanout", "p2p"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")


@dataclass
class DeliveryReport:
    """Everything the evaluation wants to know about one version's update."""

    version: int
    start_time: float
    #: (data_center, slice_id) -> arrival simulated time
    arrivals: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: (data_center, slice_id) -> generation time, for lateness
    generated: Dict[Tuple[str, str], float] = field(default_factory=dict)
    retransmissions: int = 0
    abandoned: int = 0
    #: deliveries that switched to (or waited for) a surviving relay
    #: group because a backbone link was partitioned
    relay_failovers: int = 0
    #: (region, slice_id, reason) for every abandoned delivery — the
    #: typed record behind ``abandoned``
    failures: List[Tuple[str, str, str]] = field(default_factory=list)
    bytes_sent: int = 0
    #: bytes that left the *origin* data center (the P2P saving shows here)
    origin_bytes_sent: int = 0
    #: logical (uncompressed) bytes behind ``bytes_sent`` — with wire
    #: encoding off the two are equal; the gap is the compression saving
    payload_bytes_sent: int = 0
    detoured: int = 0
    late_threshold_s: float = 3600.0
    #: the spawned delivery processes (populated by ``run=False`` calls so
    #: a pipelined caller can drive the shared simulator itself)
    processes: List = field(default_factory=list, repr=False)

    @property
    def deliveries(self) -> int:
        return len(self.arrivals)

    @property
    def completion_time(self) -> float:
        """Last arrival's clock time."""
        if not self.arrivals:
            return self.start_time
        return max(self.arrivals.values())

    @property
    def update_time_s(self) -> float:
        """Generation of the first slice to readiness in every DC."""
        return self.completion_time - self.start_time

    @property
    def miss_count(self) -> int:
        """Deliveries that exceeded the lateness threshold, plus losses."""
        late = sum(
            1
            for key, arrived in self.arrivals.items()
            if arrived - self.generated[key] > self.late_threshold_s
        )
        return late + self.abandoned

    @property
    def miss_ratio(self) -> float:
        total = self.deliveries + self.abandoned
        if total == 0:
            return 0.0
        return self.miss_count / total


class BifrostTransport:
    """Runs one version's slice deliveries over the simulated network."""

    def __init__(
        self,
        topology: Topology,
        monitor: Optional[NetworkMonitor] = None,
        config: TransportConfig | None = None,
        tracer=None,
    ) -> None:
        self.topology = topology
        self.sim: Simulator = topology.sim
        self.config = config or TransportConfig()
        self.monitor = monitor or NetworkMonitor(topology)
        #: optional ``obs.Tracer``; each delivery process opens spans on
        #: its own track, so concurrent deliveries never mis-nest
        self.tracer = tracer
        self._random = random.Random(self.config.seed)
        #: additive corruption probability, set/cleared by fault injection
        #: (``repro.faults``) to simulate a burst of in-flight damage
        self.corruption_boost = 0.0
        #: lifetime counters across every ``deliver_version`` call — the
        #: per-report counters reset each version, these do not
        self.total_retransmissions = 0
        self.total_abandoned = 0
        self.total_relay_failovers = 0
        self.total_wire_bytes_sent = 0
        self.total_payload_bytes_sent = 0

    def _span(self, name: str, track: str, parent=None, **attrs):
        """A span on ``track``, or a no-op when tracing is off."""
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, track=track, parent=parent, **attrs)

    def register_metrics(self, registry) -> None:
        """Register the lifetime delivery-health counters.

        ``bifrost.transport.*`` carries the counters that persist across
        ``deliver_version`` calls (per-report counters reset each
        version) — the retransmit/abandon/failover tallies the telemetry
        plane turns into rates.
        """
        registry.register_many(
            "bifrost.transport",
            {
                "retransmissions": lambda: self.total_retransmissions,
                "abandoned": lambda: self.total_abandoned,
                "relay_failovers": lambda: self.total_relay_failovers,
                "wire_bytes_sent": lambda: self.total_wire_bytes_sent,
                "payload_bytes_sent": lambda: self.total_payload_bytes_sent,
            },
        )

    def _account_bytes(self, report: DeliveryReport, item) -> None:
        """Book one hop's traffic: wire bytes (what the link carried)
        and the logical payload bytes behind them."""
        wire = item.size_bytes
        logical = item.payload_bytes + 64
        report.bytes_sent += wire
        report.payload_bytes_sent += logical
        self.total_wire_bytes_sent += wire
        self.total_payload_bytes_sent += logical

    def corruption_probability(self) -> float:
        """Effective per-hop damage probability.

        The configured base rate plus any active fault-injected burst,
        capped below 1.0 so the retransmit loop can always terminate.
        """
        return min(
            0.999, self.config.corruption_probability + self.corruption_boost
        )

    def _note_failover(self, report, track, item, **attrs) -> None:
        """Record one relay failover: counters plus a marker span."""
        report.relay_failovers += 1
        self.total_relay_failovers += 1
        with self._span("relay_failover", track, slice=item.slice_id, **attrs):
            pass

    def _account_loss(
        self, report: DeliveryReport, region: str, slice_id: str,
        exc: DeliveryError,
    ) -> None:
        """Book an abandoned delivery on the report and lifetime counters."""
        report.abandoned += exc.deliveries_lost
        self.total_abandoned += exc.deliveries_lost
        report.failures.append((region, slice_id, str(exc)))

    # ------------------------------------------------------------------
    def deliver_version(
        self,
        slices: List[Slice],
        on_arrival: Optional[ArrivalCallback] = None,
        run: bool = True,
        parent_span=None,
    ) -> DeliveryReport:
        """Deliver every slice to every region's data centers.

        With ``run=True`` (default) the simulator is driven until all
        deliveries complete and the report is final; with ``run=False``
        the processes are spawned (exposed as ``report.processes``) and
        the caller drives the simulator — the concurrent multi-version
        hook :meth:`~repro.core.directload.DirectLoad.run_pipelined_cycles`
        builds on.  ``parent_span`` roots every delivery track under a
        specific span (a version's cycle span), keeping interleaved
        versions' traces separate.

        An empty ``slices`` list is a caller bug — there is no version to
        attribute the delivery to — and raises ``TransmissionError``
        rather than reporting a successful no-op delivery of version 0.
        """
        if not slices:
            raise TransmissionError("deliver_version called with no slices")
        report = DeliveryReport(
            version=slices[0].version,
            start_time=self.sim.now,
            late_threshold_s=self.config.late_threshold_s,
        )
        processes = report.processes
        if self.config.distribution == "p2p":
            regions = self.topology.regions
            for index, item in enumerate(slices):
                seed_region = regions[index % len(regions)]
                processes.append(
                    self.sim.process(
                        self._deliver_p2p(
                            item, seed_region, report, on_arrival, parent_span
                        )
                    )
                )
        else:
            for item in slices:
                for region in self.topology.regions:
                    processes.append(
                        self.sim.process(
                            self._deliver_one(
                                item, region, report, on_arrival, parent_span
                            )
                        )
                    )
        if run:
            done = self.sim.all_of(processes)
            self.sim.run(until=done)
        return report

    # ------------------------------------------------------------------
    def _deliver_one(
        self,
        item: Slice,
        region: str,
        report: DeliveryReport,
        on_arrival: Optional[ArrivalCallback],
        parent_span=None,
    ):
        sim = self.sim
        config = self.config
        if item.available_at > sim.now:
            yield item.available_at - sim.now
        generated_at = sim.now
        stream = stream_of(item.kind)
        track = f"deliver:{region}:{item.slice_id}"
        direct = [ORIGIN, region]

        try:
            with self._span(
                "deliver", track, parent=parent_span,
                slice=item.slice_id, region=region,
            ):
                attempts = 0
                reroutes = 0
                while True:
                    try:
                        if config.adaptive_routing:
                            hops = self.monitor.choose_route(
                                region, item.size_bytes, stream
                            )
                        else:
                            if self.topology.route_partitioned(direct):
                                raise LinkPartitionedError(
                                    f"direct route to {region} is partitioned"
                                )
                            hops = direct
                        if len(hops) > 2:
                            report.detoured += 1
                            if self.topology.route_partitioned(direct):
                                # The region's preferred relay link is
                                # blackholed; a surviving relay group is
                                # carrying its slices instead.
                                self._note_failover(
                                    report, track, item, via=hops[1]
                                )
                        travelling = item.clean_copy()
                        for source, destination in zip(hops, hops[1:]):
                            with self._span(
                                "transmit_hop",
                                track,
                                source=source,
                                destination=destination,
                                slice=item.slice_id,
                                attempt=attempts,
                            ):
                                sublink = self.topology.stream_link(
                                    source, destination, stream
                                )
                                yield sublink.transmit_delay(travelling.size_bytes)
                                self._account_bytes(report, travelling)
                                if source == ORIGIN:
                                    report.origin_bytes_sent += (
                                        travelling.size_bytes
                                    )
                                if (
                                    self._random.random()
                                    < self.corruption_probability()
                                ):
                                    travelling.corrupt()
                                yield config.relay_processing_s
                                travelling.verify()  # relays re-check the CRC
                        break
                    except ChecksumMismatchError:
                        attempts += 1
                        report.retransmissions += 1
                        self.total_retransmissions += 1
                        if attempts > config.max_retransmits:
                            sublink.delivery_failures += 1
                            raise DeliveryError(
                                f"slice {item.slice_id} to {region}: "
                                f"{config.max_retransmits} retransmissions "
                                "all arrived corrupted"
                            )
                    except (LinkPartitionedError, RoutingError) as exc:
                        reroutes += 1
                        if reroutes > config.max_reroutes:
                            raise DeliveryError(
                                f"slice {item.slice_id} to {region}: still "
                                f"unreachable after {config.max_reroutes} "
                                f"reroute attempts ({exc})"
                            )
                        self._note_failover(
                            report, track, item, reason=str(exc)
                        )
                        yield config.reroute_backoff_s

                yield from self._fan_out(
                    travelling, region, generated_at, report, on_arrival, track
                )
        except DeliveryError as exc:
            self._account_loss(report, region, item.slice_id, exc)

    def _fan_out(
        self, travelling, region, generated_at, report, on_arrival,
        track=None, parent_span=None,
    ):
        """Relay group -> the region's data centers.

        The slice occupies one of the region's relay-node work slots for
        the duration of the fan-out (the paper's 20-30 relay nodes per
        group — an undersized group serializes bursts), for every data
        center of the region that takes the slice's kind.
        """
        sim = self.sim
        config = self.config
        if track is None:
            track = f"deliver:{region}:{travelling.slice_id}"
        slots = self.topology.relay_slots[region]
        yield slots.acquire()
        try:
            for dc in self.topology.receivers(region, travelling.kind):
                with self._span(
                    "fanout", track, parent=parent_span,
                    dc=dc, slice=travelling.slice_id,
                ):
                    intra = self.topology.intra_link(region, dc)
                    yield intra.transmit_delay(travelling.size_bytes)
                    self._account_bytes(report, travelling)
                    yield config.relay_processing_s
                    travelling.verify()
                    key = (dc, travelling.slice_id)
                    report.arrivals[key] = sim.now
                    report.generated[key] = generated_at
                    if on_arrival is not None:
                        on_arrival(dc, travelling)
        finally:
            slots.release()

    # ------------------------------------------------------------------
    def _deliver_p2p(self, item, seed_region, report, on_arrival,
                     parent_span=None):
        """P2P distribution: seed one region, then peer-forward.

        The origin uplink carries each slice once (the ~50-66% bandwidth
        saving over origin-fanout); peer regions receive it over an extra
        backbone hop from the seed — a second exposure to corruption and
        queueing, which is exactly why the paper judged P2P "not
        reliable" for this pipeline.
        """
        sim = self.sim
        config = self.config
        if item.available_at > sim.now:
            yield item.available_at - sim.now
        generated_at = sim.now
        stream = stream_of(item.kind)
        track = f"deliver:{seed_region}:{item.slice_id}"

        # Origin -> seed region, retrying from the origin on corruption.
        # P2P has no alternate route to the seed, so a partitioned link
        # abandons the delivery outright rather than rerouting.
        attempts = 0
        try:
            while True:
                travelling = item.clean_copy()
                with self._span(
                    "transmit_hop",
                    track,
                    parent=parent_span,
                    source=ORIGIN,
                    destination=seed_region,
                    slice=item.slice_id,
                    attempt=attempts,
                ):
                    sublink = self.topology.stream_link(
                        ORIGIN, seed_region, stream
                    )
                    yield sublink.transmit_delay(travelling.size_bytes)
                    self._account_bytes(report, travelling)
                    report.origin_bytes_sent += travelling.size_bytes
                    if self._random.random() < self.corruption_probability():
                        travelling.corrupt()
                    yield config.relay_processing_s
                try:
                    travelling.verify()
                    break
                except ChecksumMismatchError:
                    attempts += 1
                    report.retransmissions += 1
                    self.total_retransmissions += 1
                    if attempts > config.max_retransmits:
                        sublink.delivery_failures += 1
                        # Losing the seed copy loses every region's copy.
                        raise DeliveryError(
                            f"P2P seed copy of slice {item.slice_id} to "
                            f"{seed_region}: {config.max_retransmits} "
                            "retransmissions all arrived corrupted",
                            deliveries_lost=len(self.topology.regions),
                        )
        except (DeliveryError, LinkPartitionedError) as exc:
            if not isinstance(exc, DeliveryError):
                exc = DeliveryError(
                    f"P2P seed leg to {seed_region}: {exc}",
                    deliveries_lost=len(self.topology.regions),
                )
            self._account_loss(report, seed_region, item.slice_id, exc)
            return

        seed_copy = travelling
        peers = [r for r in self.topology.regions if r != seed_region]
        forwards = [
            sim.process(
                self._forward_from_seed(
                    seed_copy, seed_region, peer, generated_at, report,
                    on_arrival, parent_span,
                )
            )
            for peer in peers
        ]
        yield from self._fan_out(
            seed_copy, seed_region, generated_at, report, on_arrival,
            track, parent_span,
        )
        if forwards:
            yield sim.all_of(forwards)

    def _forward_from_seed(
        self, seed_copy, seed_region, peer_region, generated_at, report,
        on_arrival, parent_span=None,
    ):
        """Seed region -> one peer region, retrying from the seed."""
        sim = self.sim
        config = self.config
        stream = stream_of(seed_copy.kind)
        track = f"deliver:{peer_region}:{seed_copy.slice_id}"
        attempts = 0
        try:
            while True:
                travelling = seed_copy.clean_copy()
                with self._span(
                    "transmit_hop",
                    track,
                    parent=parent_span,
                    source=seed_region,
                    destination=peer_region,
                    slice=seed_copy.slice_id,
                    attempt=attempts,
                ):
                    sublink = self.topology.stream_link(
                        seed_region, peer_region, stream
                    )
                    yield sublink.transmit_delay(travelling.size_bytes)
                    self._account_bytes(report, travelling)
                    if self._random.random() < self.corruption_probability():
                        travelling.corrupt()
                    yield config.relay_processing_s
                try:
                    travelling.verify()
                    break
                except ChecksumMismatchError:
                    attempts += 1
                    report.retransmissions += 1
                    self.total_retransmissions += 1
                    if attempts > config.max_retransmits:
                        sublink.delivery_failures += 1
                        raise DeliveryError(
                            f"P2P forward of slice {seed_copy.slice_id} from "
                            f"{seed_region} to {peer_region}: "
                            f"{config.max_retransmits} retransmissions all "
                            "arrived corrupted"
                        )
        except (DeliveryError, LinkPartitionedError) as exc:
            if not isinstance(exc, DeliveryError):
                exc = DeliveryError(
                    f"P2P forward {seed_region}->{peer_region}: {exc}"
                )
            self._account_loss(report, peer_region, seed_copy.slice_id, exc)
            return
        yield from self._fan_out(
            travelling, peer_region, generated_at, report, on_arrival,
            track, parent_span,
        )
