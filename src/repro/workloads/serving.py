"""Query-serving workload: SLO-tracked reads against a live fleet.

The workload stands up the standard small DirectLoad system (two Mint
groups per DC so the frontend's scatter-gather actually partitions),
bootstraps version 1, then runs open-loop read clients — zipfian key
skew, a diurnal rate swing, and an optional flash crowd — through the
:class:`~repro.serving.ServingFrontend` while pipelined update cycles
(and optionally a chaos plan) churn the same fleet underneath.

Two entry points:

* :func:`run_serving` — the full workload; returns an SLO report
  (admitted/shed/not-found counts, latency percentiles, shed rate) plus
  live handles.
* :func:`run_multiget_ablation` — the A13 acceptance measurement: the
  same zipfian read set through ``multi_get`` in batches of one versus
  64, with a value digest proving the two arms returned byte-identical
  results.  Throughput is keys per simulated device-second, so the
  number is deterministic and CI-stable.

**Rate calibration.**  The default offered load is 60 queries/s/node.
Defense, from two directions that land in the same decade:

* *Top down* (the load estimates the roadmap cites for a production
  web-search serving tier: ~38M qps global, ~9.7M qps per regional
  center): a regional center runs on the order of 10^4 serving nodes,
  so ~10^3 qps/node real; this repo simulates at ~1/1000 of paper
  scale throughout (see ``benchmarks/conftest.py``), giving O(1–10^2)
  qps/node — 60 sits mid-range.
* *Bottom up* (the device model): a simulated NAND read costs ~0.27 ms
  of device time per 16 KiB page (see ``TimingModel``), so a node
  serving 1 KiB summary values sustains a few thousand random reads
  per device-second when reads are the only tenant.  They are not —
  the same devices absorb pipelined delivery ingest (the paper's whole
  point is index delivery concurrent with serving) — so the workload
  offers well under device saturation and relies on admission control,
  not queueing, to keep the tail bounded when the flash crowd
  multiplies the rate.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Dict, List, Optional

from repro.errors import ConfigError, OverloadError
from repro.serving import ServingConfig, ServingFrontend

#: acceptance floor of the A13 ablation: batched over per-key read
#: throughput at the default batch size
MIN_BATCHED_SPEEDUP = 3.0


@dataclass(frozen=True)
class FlashCrowdConfig:
    """A sudden hot-key surge partway through the run."""

    #: where in the run the surge starts, as a fraction of the duration
    start_fraction: float = 0.5
    duration_s: float = 3.0
    #: offered-rate multiplier while the surge lasts
    multiplier: float = 8.0
    #: number of distinct keys the surge hammers
    hot_keys: int = 8
    #: probability a surge-window request targets the hot set
    hot_probability: float = 0.8


@dataclass(frozen=True)
class ServingWorkloadConfig:
    """One serving run's shape."""

    #: update cycles driven while serving (bootstrap excluded)
    days: int = 2
    #: offered read rate per live node, before diurnal/flash scaling
    qps_per_node: float = 60.0
    #: minimum serving window (simulated seconds); the run serves at
    #: least this long even if the update train finishes earlier
    duration_s: float = 20.0
    #: sinusoidal swing of the offered rate (0 disables)
    diurnal_amplitude: float = 0.4
    #: period of the diurnal swing
    diurnal_period_s: float = 10.0
    flash: Optional[FlashCrowdConfig] = field(default_factory=FlashCrowdConfig)
    #: "pipelined" runs update cycles concurrent with serving; "none"
    #: serves against the bootstrap version only
    updates: str = "pipelined"
    #: optional chaos plan name / inline clauses injected during the run
    plan: Optional[str] = None
    mutation_rate: float = 0.3
    serving: ServingConfig = field(default_factory=ServingConfig)
    seed: int = 23

    def __post_init__(self) -> None:
        if self.updates not in ("pipelined", "none"):
            raise ConfigError(
                f"updates must be 'pipelined' or 'none', got {self.updates!r}"
            )
        if self.qps_per_node <= 0:
            raise ConfigError("qps_per_node must be positive")
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ConfigError("diurnal_amplitude must be in [0, 1)")


@dataclass
class ServingRunResult:
    """The report plus live handles for tests to poke at."""

    data: Dict[str, object]
    system: object = field(repr=False, default=None)
    frontend: Optional[ServingFrontend] = field(repr=False, default=None)
    injector: object = field(repr=False, default=None)


def build_serving_system(tracing: bool = False):
    """The chaos-month fleet widened to two groups per DC, so cluster
    ``multi_get`` exercises its group partitioning."""
    from repro.workloads.chaos import build_chaos_system

    return build_chaos_system(tracing=tracing, group_count=2)


def _zipfish_index(rng: random.Random, count: int) -> int:
    """Log-uniform key choice: rank r is ~1/r likely, the classic
    zipf(1) shape, without scipy."""
    return min(count - 1, int(count ** rng.random()) - 1)


def run_serving(
    config: ServingWorkloadConfig | None = None, tracing: bool = False
) -> ServingRunResult:
    """Run the serving workload; see the module docstring."""
    from repro.workloads.chaos import arm_faults, quiesce, resolve_plan, row

    config = config or ServingWorkloadConfig()
    system = build_serving_system(tracing=tracing)
    sim = system.sim

    bootstrap = system.run_update_cycle()

    frontend = ServingFrontend(
        sim, system.clusters, config.serving, tracer=system.tracer
    )
    frontend.register_metrics(system.metrics)

    injector = None
    if config.plan:
        injector = arm_faults(system)
        injector.start(resolve_plan(config.plan))

    started = sim.now
    stop = {"flag": False}
    flash = config.flash
    flash_start = (
        started + config.duration_s * flash.start_fraction if flash else None
    )
    submitted = {"requests": 0}

    def in_flash() -> bool:
        return (
            flash is not None
            and flash_start <= sim.now < flash_start + flash.duration_s
        )

    def offered_rate(cluster) -> float:
        nodes = sum(group.healthy_count for group in cluster.groups)
        rate = config.qps_per_node * max(1, nodes)
        if config.diurnal_amplitude:
            rate *= 1.0 + config.diurnal_amplitude * math.sin(
                2.0 * math.pi * (sim.now - started) / config.diurnal_period_s
            )
        if in_flash():
            rate *= flash.multiplier
        return rate

    hot_cache: Dict[int, List[bytes]] = {}

    def pick_key(rng: random.Random, keys: List[bytes], version: int) -> bytes:
        if flash and in_flash() and rng.random() < flash.hot_probability:
            hot = hot_cache.get(version)
            if hot is None:
                hot = hot_cache[version] = sorted(set(keys))[: flash.hot_keys]
            return hot[rng.randrange(len(hot))]
        return keys[_zipfish_index(rng, len(keys))]

    def client(index: int, dc: str, cluster):
        """Open-loop reader: offered load does not slow down when the
        fleet does — that pressure is exactly what admission control is
        for.  Completions are observed by the frontend's SLO trackers,
        so the client never blocks on its own reads."""
        rng = random.Random(config.seed * 7919 + index)
        while not stop["flag"]:
            yield sim.timeout(rng.expovariate(offered_rate(cluster)))
            if stop["flag"]:
                return
            version = system.versions.active_version or bootstrap.version
            keys = cluster.version_keys.get(version)
            if not keys:
                continue
            submitted["requests"] += 1
            try:
                frontend.try_submit(dc, pick_key(rng, keys, version), version)
            except OverloadError:
                continue

    clients = [
        sim.process(client(index, dc, cluster))
        for index, (dc, cluster) in enumerate(sorted(system.clusters.items()))
    ]

    reports = []
    if config.updates == "pipelined":
        reports = system.run_pipelined_cycles(
            [config.mutation_rate] * config.days
        )
    if sim.now - started < config.duration_s:
        sim.run(until=started + config.duration_s)
    stop["flag"] = True

    if injector is not None:
        quiesce(system, injector)
    frontend.drain()
    # Clients exit on their next wake; their remaining timeouts are
    # inert once the drive stops, so no explicit teardown is needed.
    del clients

    serving_report = frontend.report()
    fleet = system.fleet_stats()
    duration = sim.now - started
    admitted = serving_report["fleet"]["admitted"]
    data: Dict[str, object] = {
        "config": {
            "days": config.days,
            "qps_per_node": config.qps_per_node,
            "duration_s": config.duration_s,
            "updates": config.updates,
            "plan": config.plan,
            "coalesce_window_s": config.serving.coalesce_window_s,
            "max_batch": config.serving.max_batch,
            "max_queue_depth_per_replica": (
                config.serving.max_queue_depth_per_replica
            ),
            "slo_p99_s": config.serving.slo_p99_s,
            "seed": config.seed,
        },
        "calibration": (
            "offered load is qps_per_node x live nodes, scaled by the "
            "diurnal curve and flash crowd; the 60 qps/node default is "
            "~9.7M qps/region over ~10^4 nodes at this repo's ~1/1000 "
            "simulation scale, and sits well under the simulated "
            "device's random-read ceiling so headroom remains for "
            "concurrent delivery ingest"
        ),
        "cycles": [
            row(report, "version", "keys_delivered", "update_time_s")
            for report in [bootstrap] + list(reports)
        ],
        "serving": serving_report,
        "served_duration_s": duration,
        "offered_qps": (
            serving_report["fleet"]["requests"] / duration if duration else 0.0
        ),
        "achieved_qps": admitted / duration if duration else 0.0,
        "group_reads": {
            name: fleet.get(name, 0)
            for name in (
                "multi_gets",
                "batched_gets",
                "failover_gets",
                "shed_gets",
                "missing_gets",
                "get_batches",
            )
        },
    }
    return ServingRunResult(
        data=data, system=system, frontend=frontend, injector=injector
    )


# ----------------------------------------------------------------------
# A13: batch size 1 versus 64 on the same zipfian read set
# ----------------------------------------------------------------------


def _device_seconds(cluster) -> float:
    return sum(
        node.engine.device.now
        for group in cluster.groups
        for node in group.nodes
    )


def _zipfian_reads(system, count: int, seed: int) -> List[tuple]:
    """A deterministic zipfian read set over the bootstrap corpus."""
    rng = random.Random(seed)
    reads = []
    for dc in sorted(system.clusters):
        cluster = system.clusters[dc]
        version = min(cluster.version_keys)
        keys = sorted(set(cluster.version_keys[version]))
        for _ in range(count):
            reads.append(
                (dc, keys[_zipfish_index(rng, len(keys))], version)
            )
    return reads


def run_multiget_ablation(
    reads_per_dc: int = 256,
    batch_size: int = 64,
    seed: int = 97,
) -> Dict[str, object]:
    """``multi_get`` at batch size 1 versus ``batch_size`` on
    byte-identical read sets — one code path, two batch sizes.

    Both arms bootstrap their own (identical, seeded) fleet, serve the
    same zipfian read set, and report keys per simulated device-second.
    The sha256 digest over every returned value must match between arms
    — the fast path is only fast if it is also *right*.
    """

    def arm(size: int) -> Dict[str, object]:
        system = build_serving_system(tracing=False)
        system.run_update_cycle()
        reads = _zipfian_reads(system, reads_per_dc, seed)
        digest = hashlib.sha256()
        before = sum(
            _device_seconds(cluster) for cluster in system.clusters.values()
        )
        # ``reads`` comes grouped by DC, so batches keep its order.
        for dc, run in groupby(reads, key=itemgetter(0)):
            items = [(key, version) for _dc, key, version in run]
            for start in range(0, len(items), size):
                for value in system.clusters[dc].multi_get(
                    items[start : start + size]
                ):
                    digest.update(value)
        device_s = (
            sum(
                _device_seconds(cluster)
                for cluster in system.clusters.values()
            )
            - before
        )
        return {
            "keys": len(reads),
            "device_s": round(device_s, 6),
            "keys_per_device_s": (
                round(len(reads) / device_s, 1) if device_s else 0.0
            ),
            "digest": digest.hexdigest(),
        }

    per_key = arm(1)
    batched = arm(batch_size)
    return {
        "reads_per_dc": reads_per_dc,
        "batch_size": batch_size,
        "per_key": per_key,
        "batched": batched,
        "speedup": (
            round(
                batched["keys_per_device_s"] / per_key["keys_per_device_s"], 2
            )
            if per_key["keys_per_device_s"]
            else 0.0
        ),
        "digests_match": per_key["digest"] == batched["digest"],
    }


def run_serving_bench(
    workload: ServingWorkloadConfig | None = None,
) -> Dict[str, object]:
    """The ``repro serve`` report: the ablation plus a full workload run."""
    result = run_serving(workload)
    return {
        "ablation": run_multiget_ablation(),
        "serving": {
            "fleet": result.data["serving"]["fleet"],
            "offered_qps": result.data["offered_qps"],
            "achieved_qps": result.data["achieved_qps"],
        },
        "workload": result.data,
    }


__all__ = [
    "FlashCrowdConfig",
    "MIN_BATCHED_SPEEDUP",
    "ServingRunResult",
    "ServingWorkloadConfig",
    "build_serving_system",
    "run_multiget_ablation",
    "run_serving",
    "run_serving_bench",
]
