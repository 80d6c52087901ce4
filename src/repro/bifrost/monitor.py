"""The centralized network monitoring platform.

"A centralized network monitoring platform keeps collecting the real-time
network statistics from the relay groups, predicts the available bandwidth
resources of the network channels, and directs how the index data should
be delivered" (paper 2.2).

The monitor samples every backbone link's recent utilization on a fixed
interval, smooths it with an EWMA, predicts available bandwidth, and
scores candidate routes by predicted completion time for a given transfer
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bifrost.channels import Topology
from repro.errors import ConfigError, RoutingError
from repro.simulation.kernel import Simulator
from repro.simulation.pipes import Link


@dataclass
class LinkEstimate:
    """The monitor's current belief about one link."""

    utilization_ewma: float = 0.0
    samples: int = 0


class NetworkMonitor:
    """EWMA utilization tracking + route scoring over the backbone."""

    def __init__(
        self,
        topology: Topology,
        sample_interval_s: float = 60.0,
        ewma_alpha: float = 0.3,
        congestion_threshold: float = 0.8,
    ) -> None:
        if sample_interval_s <= 0:
            raise ConfigError("sample interval must be positive")
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError("EWMA alpha must be in (0, 1]")
        if not 0.0 < congestion_threshold <= 1.0:
            raise ConfigError("congestion threshold must be in (0, 1]")
        self.topology = topology
        self.sim = topology.sim
        self.sample_interval_s = sample_interval_s
        self.ewma_alpha = ewma_alpha
        #: EWMA utilization above this reads the link as congested (the
        #: ``.congested`` gauge the health engine's warn rule watches)
        self.congestion_threshold = congestion_threshold
        self._estimates: Dict[Tuple[str, str], LinkEstimate] = {
            pair: LinkEstimate() for pair in topology.backbone
        }
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic sampling as a simulation process."""
        if not self._running:
            self._running = True
            self.sim.process(self._sampling_loop())

    def _sampling_loop(self):
        while True:
            self.sample_now()
            yield self.sim.timeout(self.sample_interval_s)

    def sample_now(self) -> None:
        """Take one utilization sample of every backbone link."""
        for pair, link in self.topology.backbone.items():
            estimate = self._estimates[pair]
            observed = link.utilization(self.sample_interval_s)
            if estimate.samples == 0:
                estimate.utilization_ewma = observed
            else:
                estimate.utilization_ewma = (
                    self.ewma_alpha * observed
                    + (1.0 - self.ewma_alpha) * estimate.utilization_ewma
                )
            estimate.samples += 1

    # ------------------------------------------------------------------
    def predicted_available_bps(self, source: str, destination: str) -> float:
        """Predicted spare bandwidth on a backbone link."""
        link = self.topology.backbone[(source, destination)]
        estimate = self._estimates[(source, destination)]
        return max(link.bandwidth_bps * (1.0 - estimate.utilization_ewma), 1.0)

    def estimate_route_time(
        self, hops: List[str], nbytes: int, stream: str
    ) -> float:
        """Predicted completion time of ``nbytes`` along ``hops``.

        Uses the reserved sub-link's live queueing delay plus the
        EWMA-predicted share of spare bandwidth for the stream.
        """
        share = self.topology.config.reservation[stream]
        total = 0.0
        for source, destination in zip(hops, hops[1:]):
            sublink = self.topology.stream_link(source, destination, stream)
            available = self.predicted_available_bps(source, destination) * share
            total += (
                sublink.queueing_delay()
                + nbytes * 8.0 / max(available, 1.0)
                + sublink.latency_s
            )
        return total

    def choose_route(
        self, destination_region: str, nbytes: int, stream: str
    ) -> List[str]:
        """The candidate route with the smallest predicted time.

        Ties favour the direct route (fewer hops, fewer failure points).
        Routes crossing a partitioned backbone hop are excluded — the
        relay-failover path: a region whose preferred (direct) relay link
        is blackholed gets its slices through a surviving relay group
        instead.  If *every* candidate is partitioned the region is
        unreachable right now and :class:`RoutingError` is raised; the
        transport backs off and retries until the partition heals or its
        reroute budget runs out.
        """
        best_hops: List[str] | None = None
        best_time = float("inf")
        for hops in self.topology.routes(destination_region):
            if self.topology.route_partitioned(hops):
                continue
            predicted = self.estimate_route_time(hops, nbytes, stream)
            if predicted < best_time - 1e-12:
                best_hops, best_time = hops, predicted
        if best_hops is None:
            raise RoutingError(
                f"all routes to {destination_region!r} are partitioned"
            )
        return best_hops

    def register_metrics(self, registry) -> None:
        """Register the per-link EWMA beliefs as live gauges.

        ``bifrost.monitor.<src>-<dst>.utilization_ewma`` is the smoothed
        utilization steering route choice; ``.samples`` counts how many
        sampling-loop ticks have fed it; ``.congested`` is the
        thresholded health view (EWMA above
        :attr:`congestion_threshold`).
        """
        for (source, destination), estimate in self._estimates.items():
            registry.register_many(
                f"bifrost.monitor.{source}-{destination}",
                {
                    "utilization_ewma": (
                        lambda e=estimate: e.utilization_ewma
                    ),
                    "samples": lambda e=estimate: e.samples,
                    "congested": lambda e=estimate: (
                        1.0
                        if e.utilization_ewma > self.congestion_threshold
                        else 0.0
                    ),
                },
            )
