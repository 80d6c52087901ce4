"""Bandwidth-limited links between simulated network endpoints.

A :class:`Link` serializes transfers FIFO at a fixed bandwidth (bytes are
clocked out one transfer at a time, as on a physical NIC queue) and then
adds a fixed propagation delay.  The link records per-bucket byte counters
so Bifrost's monitoring platform can estimate recent utilization, and it
supports *reservations* — carving the physical bandwidth into named
fractional sub-links (the paper reserves 40% for summary indices and 60%
for inverted indices).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigError, LinkPartitionedError, SimulationError
from repro.simulation.kernel import Simulator


class Link:
    """A FIFO serializing channel with fixed bandwidth and latency.

    ``transmit_delay(nbytes)`` returns the seconds until the last byte
    arrives at the far end: serialization happens back-to-back behind any
    transfers already queued, then propagation delay is added.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float,
        latency_s: float = 0.0,
        name: str = "",
        stat_bucket_s: float = 60.0,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ConfigError(f"bandwidth must be positive, got {bandwidth_bps}")
        if latency_s < 0:
            raise ConfigError(f"latency must be >= 0, got {latency_s}")
        if stat_bucket_s <= 0:
            raise ConfigError(f"stat bucket must be positive, got {stat_bucket_s}")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = float(bandwidth_bps)
        #: nameplate bandwidth; ``degrade``/``restore`` scale off this
        self.nominal_bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        self.stat_bucket_s = float(stat_bucket_s)
        self._busy_until = sim.now
        self.bytes_sent = 0
        self.transfer_count = 0
        #: a partitioned link blackholes new transfers (fault injection)
        self.partitioned = False
        #: deliveries the transport abandoned on this link (retransmit
        #: budget exhausted with this link as the failing hop)
        self.delivery_failures = 0
        #: bytes clocked out per time bucket (bucket index -> bytes)
        self._bucket_bytes: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def transmit_delay(self, nbytes: int) -> float:
        """Queue ``nbytes``; returns the seconds until delivery, for a
        process to yield (its pooled sleep, no ``Timeout`` per hop).

        A partitioned link rejects new transfers with
        :class:`LinkPartitionedError` (transfers already serialized keep
        their scheduled delivery — the bytes were on the wire).
        """
        if nbytes < 0:
            raise SimulationError(f"cannot transmit negative bytes: {nbytes}")
        if self.partitioned:
            raise LinkPartitionedError(f"link {self.name or '?'} is partitioned")
        start = max(self.sim.now, self._busy_until)
        duration = nbytes * 8.0 / self.bandwidth_bps
        done_serializing = start + duration
        self._busy_until = done_serializing
        self._account(start, done_serializing, nbytes)
        self.bytes_sent += nbytes
        self.transfer_count += 1
        return (done_serializing + self.latency_s) - self.sim.now

    def queueing_delay(self) -> float:
        """Seconds a new transfer would wait before its first byte moves."""
        return max(0.0, self._busy_until - self.sim.now)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def partition(self) -> None:
        """Blackhole the link: every new ``transmit_delay`` raises until
        :meth:`restore`."""
        self.partitioned = True

    def degrade(self, factor: float) -> None:
        """Throttle to ``factor`` of nominal bandwidth (0 < factor <= 1).

        Only transfers queued after the call see the reduced rate —
        already-serialized bytes keep their delivery times, like a
        policer taking effect on the next packet.
        """
        if not 0.0 < factor <= 1.0:
            raise ConfigError(f"degrade factor must be in (0, 1], got {factor}")
        self.bandwidth_bps = self.nominal_bandwidth_bps * factor

    def restore(self) -> None:
        """Heal the link: clear the partition and restore full bandwidth."""
        self.partitioned = False
        self.bandwidth_bps = self.nominal_bandwidth_bps

    # ------------------------------------------------------------------
    # Utilization accounting
    # ------------------------------------------------------------------
    def _account(self, start: float, end: float, nbytes: int) -> None:
        """Spread ``nbytes`` across the stat buckets covering [start, end)."""
        if nbytes == 0:
            return
        if end <= start:
            # Zero-duration transfer; attribute it all to the start bucket.
            self._bucket_bytes[int(start // self.stat_bucket_s)] = (
                self._bucket_bytes.get(int(start // self.stat_bucket_s), 0) + nbytes
            )
            return
        duration = end - start
        first = int(start // self.stat_bucket_s)
        last = int(end // self.stat_bucket_s)
        for bucket in range(first, last + 1):
            bucket_start = bucket * self.stat_bucket_s
            bucket_end = bucket_start + self.stat_bucket_s
            overlap = min(end, bucket_end) - max(start, bucket_start)
            if overlap <= 0:
                continue
            share = int(round(nbytes * overlap / duration))
            if share:
                self._bucket_bytes[bucket] = self._bucket_bytes.get(bucket, 0) + share

    def utilization(self, window_s: float | None = None) -> float:
        """Fraction of bandwidth used over the trailing ``window_s`` seconds.

        Defaults to one stat bucket.  Values are approximate (bucketed) but
        monotone in actual traffic, which is all the monitor needs.
        """
        window = window_s if window_s is not None else self.stat_bucket_s
        if window <= 0:
            raise ConfigError(f"window must be positive, got {window}")
        now = self.sim.now
        first = int(max(0.0, now - window) // self.stat_bucket_s)
        last = int(now // self.stat_bucket_s)
        sent = sum(self._bucket_bytes.get(b, 0) for b in range(first, last + 1))
        capacity_bytes = self.bandwidth_bps / 8.0 * window
        return min(1.0, sent / capacity_bytes) if capacity_bytes else 0.0

    # ------------------------------------------------------------------
    def reserve(self, shares: Dict[str, float]) -> Dict[str, "Link"]:
        """Split the link into named fractional sub-links.

        ``shares`` maps stream names to bandwidth fractions summing to at
        most 1.0.  Each sub-link serializes independently — matching the
        paper's static 40%/60% reservation, where one stream stalling does
        not donate bandwidth to the other.
        """
        total = sum(shares.values())
        if total > 1.0 + 1e-9:
            raise ConfigError(f"reservations sum to {total:.3f} > 1.0")
        sublinks = {}
        for stream, fraction in shares.items():
            if fraction <= 0:
                raise ConfigError(f"share for {stream!r} must be positive")
            sublinks[stream] = Link(
                self.sim,
                self.bandwidth_bps * fraction,
                self.latency_s,
                name=f"{self.name}/{stream}",
                stat_bucket_s=self.stat_bucket_s,
            )
        return sublinks
