"""The delivery engine: slices from the origin to every data center.

Every backbone crossing is one *carry* (``BifrostTransport._carry``): a
clean copy crosses each hop's reserved stream sub-link, the receiving
relay group re-verifies the checksum, and a damaged copy is sent again
from its source until ``max_retransmits`` is spent.  Origin fan-out
runs, for each slice and each region, a simulation process that:

1. waits until the slice is generated (``available_at``);
2. asks the :class:`~repro.bifrost.monitor.NetworkMonitor` for the best
   route (direct, or detouring through another region's relay group),
   rerouting with backoff while links are partitioned;
3. carries the slice over that route;
4. fans out from the relay group to the region's data centers (summary
   slices only to the region's summary DC), verifying once more and
   handing the slice to the ingestion callback.

P2P instead seeds one region per slice over one fixed hop (a *leg*); the
seed forwards its copy to each peer region over a leg of its own while
it fans out.  A leg never reroutes: a partitioned hop abandons it.

Arrival bookkeeping feeds the paper's two operational metrics: *update
time* (first generation to last arrival) and *miss ratio* (slices taking
over an hour to arrive, SLO 0.6%, or lost — a loss counts every
data-center arrival the lost copy would have produced).
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
    #: deliveries lost, in the unit of ``arrivals``: once every process
    #: has ended, ``deliveries + abandoned`` is every (DC, slice) due
    abandoned: int = 0
    #: deliveries that switched to (or waited for) a surviving relay
    #: group because a backbone link was partitioned, each counted once
    #: however many detours or reroute waits it took
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

    def _note_failover(self, report, track, item, first: bool, **attrs) -> None:
        """Mark one reroute wait or detour with a span; on a delivery's
        ``first`` one, count the delivery too."""
        if first:
            report.relay_failovers += 1
            self.total_relay_failovers += 1
        with self._span("relay_failover", track, slice=item.slice_id, **attrs):
            pass

    def _account_loss(
        self, report: DeliveryReport, item: Slice, regions: List[str],
        exc: DeliveryError,
    ) -> None:
        """Book an abandoned delivery on the report and lifetime counters:
        one loss per data center of ``regions`` (the first the one the
        copy was travelling to) that the lost copy would have reached."""
        lost = sum(len(self.topology.receivers(r, item.kind)) for r in regions)
        report.abandoned += lost
        self.total_abandoned += lost
        report.failures.append((regions[0], item.slice_id, str(exc)))

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
                failed_over = False
                travelling = None
                while travelling is None:
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
                                    report, track, item, not failed_over,
                                    via=hops[1],
                                )
                                failed_over = True
                        travelling = yield from self._carry(
                            item, hops, attempts, report, track
                        )
                        attempts += 1
                    except (LinkPartitionedError, RoutingError) as exc:
                        reroutes += 1
                        if reroutes > config.max_reroutes:
                            raise DeliveryError(
                                f"slice {item.slice_id} to {region}: still "
                                f"unreachable after {config.max_reroutes} "
                                f"reroute attempts ({exc})"
                            )
                        self._note_failover(
                            report, track, item, not failed_over,
                            reason=str(exc),
                        )
                        failed_over = True
                        yield config.reroute_backoff_s

                yield from self._fan_out(
                    travelling, region, generated_at, report, on_arrival, track
                )
        except DeliveryError as exc:
            self._account_loss(report, item, [region], exc)

    def _carry(self, source_copy, hops, attempt, report, track,
               parent_span=None):
        """Carry one attempt of ``source_copy`` over ``hops``.

        A clean copy crosses each backbone hop on the slice's reserved
        stream sub-link (bytes booked, and booked as origin bytes when
        the origin sends), may be damaged in flight, and is re-checked
        by the receiving relay group.  Returns the copy that arrived
        intact, or ``None`` when a relay caught damage and the copy is
        to be sent again from ``hops[0]``.  Past ``max_retransmits``
        damaged arrivals the delivery is abandoned: ``DeliveryError``.
        A partitioned hop raises ``LinkPartitionedError`` to the caller.
        """
        config = self.config
        stream = stream_of(source_copy.kind)
        travelling = source_copy.clean_copy()
        try:
            for source, destination in zip(hops, hops[1:]):
                with self._span(
                    "transmit_hop",
                    track,
                    parent=parent_span,
                    source=source,
                    destination=destination,
                    slice=travelling.slice_id,
                    attempt=attempt,
                ):
                    sublink = self.topology.stream_link(
                        source, destination, stream
                    )
                    yield sublink.transmit_delay(travelling.size_bytes)
                    self._account_bytes(report, travelling)
                    if source == ORIGIN:
                        report.origin_bytes_sent += travelling.size_bytes
                    if self._random.random() < self.corruption_probability():
                        travelling.corrupt()
                    yield config.relay_processing_s
                    travelling.verify()  # relays re-check the CRC
        except ChecksumMismatchError:
            report.retransmissions += 1
            self.total_retransmissions += 1
            if attempt >= config.max_retransmits:
                sublink.delivery_failures += 1
                raise DeliveryError(
                    f"slice {travelling.slice_id} to {hops[-1]}: "
                    f"{config.max_retransmits} retransmissions all "
                    "arrived corrupted"
                )
            return None
        return travelling

    def _fan_out(
        self, travelling, region, generated_at, report, on_arrival, track,
        parent_span=None,
    ):
        """Relay group -> the region's data centers.

        The slice occupies one of the region's relay-node work slots for
        the duration of the fan-out (the paper's 20-30 relay nodes per
        group — an undersized group serializes bursts), for every data
        center of the region that takes the slice's kind.
        """
        sim = self.sim
        config = self.config
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
        if item.available_at > self.sim.now:
            yield item.available_at - self.sim.now
        peers = [r for r in self.topology.regions if r != seed_region]
        yield from self._p2p_leg(
            item, ORIGIN, seed_region, peers, self.sim.now, report,
            on_arrival, parent_span,
        )

    def _p2p_leg(self, source_copy, source, destination, onward,
                 generated_at, report, on_arrival, parent_span=None):
        """One P2P leg: ``source`` -> ``destination`` over one fixed hop.

        A damaged copy is sent again from ``source``.  P2P has no
        alternate route, so a partitioned hop abandons the leg outright
        rather than rerouting, and a lost copy loses ``destination`` and
        every ``onward`` region it would have seeded.  An arrived copy
        is forwarded to each ``onward`` region (a leg of its own, retried
        from this copy) while it fans out to ``destination``'s data
        centers.
        """
        track = f"deliver:{destination}:{source_copy.slice_id}"
        attempt = 0
        travelling = None
        try:
            while travelling is None:
                travelling = yield from self._carry(
                    source_copy, [source, destination], attempt, report,
                    track, parent_span,
                )
                attempt += 1
        except (DeliveryError, LinkPartitionedError) as exc:
            if not isinstance(exc, DeliveryError):
                exc = DeliveryError(f"P2P leg {source}->{destination}: {exc}")
            self._account_loss(
                report, source_copy, [destination, *onward], exc
            )
            return
        forwards = [
            self.sim.process(
                self._p2p_leg(
                    travelling, destination, peer, [], generated_at, report,
                    on_arrival, parent_span,
                )
            )
            for peer in onward
        ]
        yield from self._fan_out(
            travelling, destination, generated_at, report, on_arrival,
            track, parent_span,
        )
        if forwards:
            yield self.sim.all_of(forwards)
