"""Coalescing read frontend with admission control and SLO tracking.

Queries arrive as simulator events.  Instead of dispatching each key as
its own :meth:`NodeGroup.get`, the frontend holds concurrent arrivals
for a short *coalescing window* and ships them as one scatter-gather
:meth:`NodeGroup.multi_get` — the batch dedupes hot keys into single
positioned reads and amortizes per-operation CPU, which is where the
fast path's throughput comes from.

Admission control is a per-group queue-depth bound: a request that
would push the group's outstanding count past
``max_queue_depth_per_replica * healthy_count`` is *shed* with a typed
:class:`~repro.errors.OverloadError` rather than queued, so the latency
of admitted requests stays bounded while overload shows up as an
explicit shed rate instead of a collapsed tail.

Latency is accounted in simulated time from arrival to batch
completion.  Batch completion folds the per-node device-clock deltas of
the synchronous ``multi_get`` call through a per-node ``free_at``
horizon, so back-to-back batches against the same replica queue behind
each other the way a real device would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import OverloadError, ReproError
from repro.mint.cluster import MintCluster
from repro.mint.group import NodeGroup
from repro.obs.hist import LogHistogram
from repro.simulation.kernel import Simulator


@dataclass
class ServingConfig:
    """Knobs for the serving tier.

    The defaults are the calibrated operating point used by the A13
    ablation: a 2 ms coalescing window is long enough to gather
    concurrent zipfian arrivals into double-digit batches at the target
    load yet small next to the tens-of-milliseconds SLO it trades
    against.
    """

    #: how long a flusher waits to gather concurrent arrivals
    coalesce_window_s: float = 0.002
    #: largest batch handed to one ``multi_get`` call
    max_batch: int = 64
    #: admitted-but-unfinished requests allowed per healthy replica
    max_queue_depth_per_replica: int = 32
    #: p99 latency target for admitted reads (simulated seconds)
    slo_p99_s: float = 0.050
    #: latency histogram floor — samples at or below read back as this
    latency_min_s: float = 1e-6
    #: latency histogram ceiling — samples at or above read back as this
    latency_max_s: float = 100.0
    #: per-bucket growth factor; bounds relative percentile error at
    #: ``growth - 1`` (2%) in fixed memory over month-long workloads
    latency_growth: float = 1.02

    def __post_init__(self) -> None:
        if self.coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue_depth_per_replica < 1:
            raise ValueError("max_queue_depth_per_replica must be >= 1")


class _Bucket:
    """Pending requests for one ``(dc, group)`` pair."""

    __slots__ = ("group", "pending", "outstanding", "flusher", "free_at")

    def __init__(self, group: NodeGroup) -> None:
        self.group = group
        #: queued ``(key, version, event, arrival)`` awaiting a flush
        self.pending: List[tuple] = []
        #: admitted requests not yet completed (queued or in flight)
        self.outstanding = 0
        #: the active flusher Process, or None when idle
        self.flusher = None
        #: per-node device horizon serializing back-to-back batches
        self.free_at: Dict[str, float] = {}


class ServingFrontend:
    """Batched, admission-controlled read path over Mint clusters."""

    def __init__(
        self,
        sim: Simulator,
        clusters: Dict[str, MintCluster],
        config: Optional[ServingConfig] = None,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.clusters = clusters
        self.config = config or ServingConfig()
        self._buckets: Dict[Tuple[str, int], _Bucket] = {}
        self._tracks: Dict[str, object] = {}
        self._tracer = tracer
        # per-DC counters
        self.requests: Dict[str, int] = {dc: 0 for dc in clusters}
        self.admitted: Dict[str, int] = {dc: 0 for dc in clusters}
        self.shed: Dict[str, int] = {dc: 0 for dc in clusters}
        self.not_found: Dict[str, int] = {dc: 0 for dc in clusters}
        self.errors: Dict[str, int] = {dc: 0 for dc in clusters}
        self.batches: Dict[str, int] = {dc: 0 for dc in clusters}
        self.batched_keys: Dict[str, int] = {dc: 0 for dc in clusters}
        self.latency: Dict[str, LogHistogram] = {
            dc: self._new_histogram() for dc in clusters
        }

    def _new_histogram(self) -> LogHistogram:
        return LogHistogram(
            min_value=self.config.latency_min_s,
            max_value=self.config.latency_max_s,
            growth=self.config.latency_growth,
        )

    # ------------------------------------------------------------------
    def _bucket(self, dc: str, group: NodeGroup) -> _Bucket:
        slot = (dc, group.group_id)
        bucket = self._buckets.get(slot)
        if bucket is None:
            bucket = self._buckets[slot] = _Bucket(group)
        return bucket

    def depth_limit(self, group: NodeGroup) -> int:
        """Queue bound scaling with live replicas: losing a node sheds
        the load it can no longer absorb instead of queueing it."""
        return self.config.max_queue_depth_per_replica * max(
            1, group.healthy_count
        )

    def try_submit(self, dc: str, key: bytes, version: int):
        """Admit one read; returns an Event yielding the value (or
        ``None`` when no live replica holds the key).

        Raises :class:`OverloadError` — synchronously, before any
        queueing — when the target group is at its depth bound.
        """
        cluster = self.clusters[dc]
        group = cluster.group_for(key)
        bucket = self._bucket(dc, group)
        self.requests[dc] += 1
        # The bound is never below one replica's share, so the live
        # replicas are only counted once the bucket is that deep.
        if (
            bucket.outstanding >= self.config.max_queue_depth_per_replica
            and bucket.outstanding >= self.depth_limit(group)
        ):
            self.shed[dc] += 1
            group.shed_gets += 1
            raise OverloadError(
                f"group {group.group_id} in {dc} at depth "
                f"{bucket.outstanding} >= {self.depth_limit(group)}"
            )
        self.admitted[dc] += 1
        event = self.sim.event()
        bucket.pending.append((key, version, event, self.sim.now))
        bucket.outstanding += 1
        if bucket.flusher is None:
            bucket.flusher = self.sim.process(self._flush(dc, bucket))
        return event

    # ------------------------------------------------------------------
    def _track(self, dc: str):
        track = self._tracks.get(dc)
        if track is None and self._tracer is not None:
            track = self._tracks[dc] = self._tracer.track(f"serving:{dc}")
        return track

    def _flush(self, dc: str, bucket: _Bucket):
        """Flusher process: gather a window, dispatch, account, repeat
        while work keeps arriving; exits (and clears itself) when the
        bucket drains."""
        sim = self.sim
        config = self.config
        group = bucket.group
        track = self._track(dc)
        latency = self.latency[dc]
        free_at = bucket.free_at
        try:
            # Plain-number yields are the kernel's pooled sleeps: the
            # schedule point of a ``Timeout``, without the allocation.
            if config.coalesce_window_s > 0:
                yield config.coalesce_window_s
            while bucket.pending:
                batch = bucket.pending[: config.max_batch]
                del bucket.pending[: len(batch)]
                items = [(key, version) for key, version, _e, _a in batch]
                nodes = group.nodes
                before = [node.engine.device.now for node in nodes]
                span = None
                if track is not None:
                    span = track.span(
                        "serve_batch", group=group.group_id, keys=len(items)
                    )
                    span.__enter__()
                try:
                    try:
                        values = group.multi_get(items, missing="none")
                    except ReproError:
                        # No live replica at all, or every live copy of a
                        # key corrupt: the batch fails together; report
                        # rather than crash the serving loop.
                        self.errors[dc] += len(items)
                        values = [None] * len(items)
                finally:
                    if span is not None:
                        span.__exit__(None, None, None)
                self.batches[dc] += 1
                self.batched_keys[dc] += len(items)
                # Fold the synchronous call's device-clock advances
                # through the per-node horizon: a node still busy with
                # the previous batch starts this one when it frees up.
                now = completion = sim.now
                for node, clock in zip(nodes, before):
                    delta = node.engine.device.now - clock
                    if delta <= 0:
                        continue
                    start = max(now, free_at.get(node.name, 0.0))
                    finish = start + delta
                    free_at[node.name] = finish
                    completion = max(completion, finish)
                if completion > now:
                    yield completion - now
                    now = sim.now
                self.not_found[dc] += values.count(None)
                bucket.outstanding -= len(batch)
                for (_key, _version, event, arrival), value in zip(
                    batch, values
                ):
                    latency.add(now - arrival)
                    event.succeed(value)
        finally:
            bucket.flusher = None

    # ------------------------------------------------------------------
    def active_flushers(self) -> List:
        """Processes still draining queued work (for ``sim.all_of``)."""
        return [
            bucket.flusher
            for bucket in self._buckets.values()
            if bucket.flusher is not None
        ]

    def drain(self) -> None:
        """Run the simulator until every queued request completes."""
        while True:
            flushers = self.active_flushers()
            if not flushers:
                break
            self.sim.run(until=self.sim.all_of(flushers))

    # ------------------------------------------------------------------
    def register_metrics(self, registry) -> None:
        for dc in self.clusters:
            tracker = self.latency[dc]
            registry.register_many(
                f"serving.{dc}",
                {
                    "requests": lambda dc=dc: self.requests[dc],
                    "admitted": lambda dc=dc: self.admitted[dc],
                    "shed": lambda dc=dc: self.shed[dc],
                    "not_found": lambda dc=dc: self.not_found[dc],
                    "errors": lambda dc=dc: self.errors[dc],
                    "batches": lambda dc=dc: self.batches[dc],
                    "batched_keys": lambda dc=dc: self.batched_keys[dc],
                    "latency_p50_s": lambda t=tracker: t.percentile(50.0),
                    "latency_p99_s": lambda t=tracker: t.percentile(99.0),
                },
            )

    def report(self) -> Dict[str, object]:
        """Per-DC and fleet-wide serving summary against the SLO."""
        per_dc: Dict[str, object] = {}
        fleet = {
            "requests": 0,
            "admitted": 0,
            "shed": 0,
            "not_found": 0,
            "errors": 0,
            "batches": 0,
            "batched_keys": 0,
        }
        worst_p99 = 0.0
        for dc in self.clusters:
            tracker = self.latency[dc]
            quantiles = tracker.quantiles() if len(tracker) else {}
            offered = self.requests[dc]
            entry = {
                "requests": offered,
                "admitted": self.admitted[dc],
                "shed": self.shed[dc],
                "shed_rate": (self.shed[dc] / offered) if offered else 0.0,
                "not_found": self.not_found[dc],
                "errors": self.errors[dc],
                "batches": self.batches[dc],
                "batched_keys": self.batched_keys[dc],
                "mean_batch": (
                    self.batched_keys[dc] / self.batches[dc]
                    if self.batches[dc]
                    else 0.0
                ),
                "latency": quantiles,
            }
            per_dc[dc] = entry
            for name in fleet:
                fleet[name] += entry[name]
            if quantiles:
                worst_p99 = max(worst_p99, quantiles["p99"])
        offered = fleet["requests"]
        # Per-DC histograms share one geometry, so the fleet latency
        # distribution is an exact bucket-wise merge — no sample
        # shipping, no approximation beyond the buckets themselves.
        merged = LogHistogram.merged(self.latency.values())
        return {
            "per_dc": per_dc,
            "fleet": dict(
                fleet,
                latency=merged.quantiles() if len(merged) else {},
                shed_rate=(fleet["shed"] / offered) if offered else 0.0,
                p99_s=worst_p99,
                slo_p99_s=self.config.slo_p99_s,
                slo_met=worst_p99 <= self.config.slo_p99_s,
            ),
        }
