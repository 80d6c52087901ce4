"""Network topology: the build DC, three regions, six data centers.

Mirrors the paper's deployment: data center #0 builds indices; three
regional relay groups (North, East, South China) each serve two data
centers.  Backbone links connect the origin to every region and every
pair of regions (re-routing through a third region is possible); intra-
region links connect a relay group to its data centers.

Every backbone link is split into *reserved* sub-links: 40% of bandwidth
for summary-index slices, 60% for inverted(+forward) slices — the paper's
empirical reservation that keeps both streams moving so the relay nodes'
general-purpose resource manager never revokes an idle allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigError, RoutingError
from repro.indexing.types import IndexKind
from repro.simulation.kernel import Simulator
from repro.simulation.pipes import Link
from repro.simulation.resources import Resource

ORIGIN = "origin"

#: stream names for the bandwidth reservation
SUMMARY_STREAM = "summary"
INVERTED_STREAM = "inverted"

DEFAULT_RESERVATION = {SUMMARY_STREAM: 0.4, INVERTED_STREAM: 0.6}


def stream_of(kind: IndexKind) -> str:
    """Which reserved stream carries entries of this kind.

    Forward indices travel combined with inverted indices (the paper's
    blue arrows), so both share the 60% reservation.
    """
    return SUMMARY_STREAM if kind is IndexKind.SUMMARY else INVERTED_STREAM


@dataclass(frozen=True)
class TopologyConfig:
    """Bandwidths, latencies, and fan-out of the delivery network."""

    regions: Tuple[str, ...] = ("north", "east", "south")
    dcs_per_region: int = 2
    #: one data center per region also stores summary indices
    summary_dcs_per_region: int = 1
    backbone_bps: float = 1e9  # 1 Gbps, the paper's testbed NICs
    intra_bps: float = 10e9
    backbone_latency_s: float = 0.02
    intra_latency_s: float = 0.002
    relay_nodes_per_group: int = 24  # paper: 20-30 per relay group
    stat_bucket_s: float = 60.0
    reservation: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_RESERVATION)
    )

    def __post_init__(self) -> None:
        if len(self.regions) < 1:
            raise ConfigError("need at least one region")
        if self.dcs_per_region < 1:
            raise ConfigError("need at least one data center per region")
        if self.summary_dcs_per_region > self.dcs_per_region:
            raise ConfigError("more summary DCs than DCs in a region")
        if min(self.backbone_bps, self.intra_bps) <= 0:
            raise ConfigError("bandwidths must be positive")


class Topology:
    """Links between the origin, regions, and data centers."""

    def __init__(self, sim: Simulator, config: TopologyConfig) -> None:
        self.sim = sim
        self.config = config
        self.regions: List[str] = list(config.regions)
        self.data_centers: Dict[str, List[str]] = {}
        self.summary_dcs: Dict[str, List[str]] = {}
        #: physical backbone links, (src, dst) -> Link
        self.backbone: Dict[Tuple[str, str], Link] = {}
        #: reserved stream sub-links per backbone link
        self.streams: Dict[Tuple[str, str], Dict[str, Link]] = {}
        #: intra-region links, (region, dc) -> Link
        self.intra: Dict[Tuple[str, str], Link] = {}
        #: per-region relay work slots: the paper's 20-30 relay nodes
        #: caching and forwarding; a slice holds one slot while its relay
        #: group processes it, so a small group serializes heavy bursts
        self.relay_slots: Dict[str, Resource] = {}
        self._build()

    def _build(self) -> None:
        config = self.config
        endpoints = [ORIGIN] + self.regions
        for source in endpoints:
            for destination in endpoints:
                if source == destination:
                    continue
                link = Link(
                    self.sim,
                    config.backbone_bps,
                    config.backbone_latency_s,
                    name=f"{source}->{destination}",
                    stat_bucket_s=config.stat_bucket_s,
                )
                self.backbone[(source, destination)] = link
                self.streams[(source, destination)] = link.reserve(
                    config.reservation
                )
        for region in self.regions:
            self.relay_slots[region] = Resource(
                self.sim, capacity=config.relay_nodes_per_group
            )
            dcs = [
                f"{region}-dc{i + 1}" for i in range(config.dcs_per_region)
            ]
            self.data_centers[region] = dcs
            self.summary_dcs[region] = dcs[: config.summary_dcs_per_region]
            for dc in dcs:
                self.intra[(region, dc)] = Link(
                    self.sim,
                    config.intra_bps,
                    config.intra_latency_s,
                    name=f"{region}->{dc}",
                    stat_bucket_s=config.stat_bucket_s,
                )

    # ------------------------------------------------------------------
    def register_metrics(self, registry) -> None:
        """Register every link's byte/transfer counters as live views.

        Naming: ``bifrost.link.<src>-<dst>.bytes`` for a physical
        backbone link, ``bifrost.link.<src>-<dst>.<stream>.bytes`` for
        its reserved sub-links, and the same scheme for intra-region
        links — the counters Bifrost's monitoring platform "keeps
        collecting" in the paper.

        Each link's family registers as one array view: a single
        row-reader per link instead of four closures, so wide fleets
        pay one call per link per snapshot.  Names and values are
        identical to per-counter registration.
        """

        def link_row(link: Link):
            return lambda: (
                link.bytes_sent,
                link.transfer_count,
                link.delivery_failures,
                1.0 if link.partitioned else 0.0,
            )

        suffixes = ("bytes", "transfers", "delivery_errors", "partitioned")
        for (source, destination), link in self.backbone.items():
            prefix = f"bifrost.link.{source}-{destination}"
            registry.register_array(prefix, suffixes, link_row(link))
            for stream, sublink in self.streams[(source, destination)].items():
                registry.register_array(
                    f"{prefix}.{stream}", suffixes, link_row(sublink)
                )
        for (region, dc), link in self.intra.items():
            registry.register_array(
                f"bifrost.link.{region}-{dc}", suffixes, link_row(link)
            )

    # ------------------------------------------------------------------
    # Fault injection (see ``repro.faults``)
    # ------------------------------------------------------------------
    def _backbone_links(self, source: str, destination: str) -> List[Link]:
        """A backbone hop's physical link plus its reserved sub-links."""
        try:
            physical = self.backbone[(source, destination)]
        except KeyError:
            raise RoutingError(
                f"no backbone link {source}->{destination}"
            ) from None
        return [physical, *self.streams[(source, destination)].values()]

    def partition_link(
        self, source: str, destination: str, both_directions: bool = True
    ) -> None:
        """Blackhole a backbone hop (physical link and every sub-link)."""
        pairs = [(source, destination)]
        if both_directions:
            pairs.append((destination, source))
        for src, dst in pairs:
            for link in self._backbone_links(src, dst):
                link.partition()

    def degrade_link(
        self,
        source: str,
        destination: str,
        factor: float,
        both_directions: bool = True,
    ) -> None:
        """Throttle a backbone hop to ``factor`` of nominal bandwidth."""
        pairs = [(source, destination)]
        if both_directions:
            pairs.append((destination, source))
        for src, dst in pairs:
            for link in self._backbone_links(src, dst):
                link.degrade(factor)

    def restore_link(
        self, source: str, destination: str, both_directions: bool = True
    ) -> None:
        """Heal a backbone hop: clear partition and degradation."""
        pairs = [(source, destination)]
        if both_directions:
            pairs.append((destination, source))
        for src, dst in pairs:
            for link in self._backbone_links(src, dst):
                link.restore()

    def link_partitioned(self, source: str, destination: str) -> bool:
        """Whether a backbone hop is currently blackholed."""
        return self.backbone[(source, destination)].partitioned

    def route_partitioned(self, hops: List[str]) -> bool:
        """Whether any backbone hop along ``hops`` is blackholed."""
        return any(
            self.link_partitioned(src, dst) for src, dst in zip(hops, hops[1:])
        )

    # ------------------------------------------------------------------
    def all_data_centers(self) -> List[str]:
        """Every data center, region by region."""
        return [dc for region in self.regions for dc in self.data_centers[region]]

    def receivers(self, region: str, kind: IndexKind) -> List[str]:
        """The data centers of ``region`` a slice of ``kind`` fans out
        to: summaries go only to the summary-storing ones."""
        if kind is IndexKind.SUMMARY:
            return self.summary_dcs[region]
        return self.data_centers[region]

    def stream_link(self, source: str, destination: str, stream: str) -> Link:
        """The reserved sub-link for ``stream`` on a backbone hop."""
        try:
            return self.streams[(source, destination)][stream]
        except KeyError:
            raise RoutingError(
                f"no {stream!r} stream on link {source}->{destination}"
            ) from None

    def intra_link(self, region: str, dc: str) -> Link:
        try:
            return self.intra[(region, dc)]
        except KeyError:
            raise RoutingError(f"no intra link {region}->{dc}") from None

    def routes(self, destination_region: str) -> List[List[str]]:
        """Candidate hop sequences from the origin to a region.

        The direct backbone path plus one detour through each other
        region (the paper's "circumvent the channels sustaining high
        traffic").
        """
        if destination_region not in self.regions:
            raise RoutingError(f"unknown region {destination_region!r}")
        candidates = [[ORIGIN, destination_region]]
        for via in self.regions:
            if via != destination_region:
                candidates.append([ORIGIN, via, destination_region])
        return candidates


def build_topology(
    sim: Simulator, config: TopologyConfig | None = None
) -> Topology:
    """Construct the paper's deployment over a simulator."""
    return Topology(sim, config or TopologyConfig())
