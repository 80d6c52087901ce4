"""The paper's Figure 5-7 workload: a summary-index update replay.

"We rerun a 6-hour workload of summary index ... 11 versions of data are
updated onto the SSDs.  The workload is composed of key-value pairs with
20-byte keys, and the value field is 20 KB on average.  For QinDB, there
are 8 write threads including 1 deletion thread and 7 insertion threads.
If there are four versions of data on the disks already, the deletion
thread removes the oldest version when the new version of data are
inserted."

The generator reproduces that shape at configurable scale: per version,
insertions of every key interleave with deletions of the expired version
at a 7:1 ratio (the thread mix), values are ~20 KB (lognormal spread),
and at most ``retained_versions`` versions persist.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.errors import ConfigError
from repro.workloads.kvtrace import KVOp, OpKind, make_value


@dataclass(frozen=True)
class Fig5WorkloadConfig:
    """Scalable parameters for the Figure 5 replay."""

    key_count: int = 1000
    key_bytes: int = 20
    value_bytes_mean: int = 20 * 1024
    value_spread: float = 0.2  # +/- fraction of uniform size jitter
    versions: int = 11
    retained_versions: int = 4
    insert_streams: int = 7  # the paper's 7 insertion threads
    delete_streams: int = 1  # ... and 1 deletion thread
    #: fraction of puts arriving value-less (0 for raw engine comparison)
    dedup_ratio: float = 0.0
    seed: int = 5

    def __post_init__(self) -> None:
        if self.key_count < 1:
            raise ConfigError("key_count must be >= 1")
        if self.key_bytes < 8:
            raise ConfigError("key_bytes must be >= 8 (room for an id)")
        if self.versions < 1:
            raise ConfigError("versions must be >= 1")
        if self.retained_versions < 1:
            raise ConfigError("retained_versions must be >= 1")
        if not 0.0 <= self.dedup_ratio < 1.0:
            raise ConfigError("dedup_ratio must be in [0, 1)")
        if not 0.0 <= self.value_spread < 1.0:
            raise ConfigError("value_spread must be in [0, 1)")


class Fig5Workload:
    """Generates the interleaved insert/delete operation stream."""

    def __init__(self, config: Fig5WorkloadConfig | None = None) -> None:
        self.config = config or Fig5WorkloadConfig()
        self._random = random.Random(self.config.seed)

    def key(self, index: int) -> bytes:
        """The fixed-width key for one document slot."""
        return f"k{index:0{self.config.key_bytes - 1}d}".encode()

    def _value_size(self) -> int:
        spread = self.config.value_spread
        factor = 1.0 + self._random.uniform(-spread, spread)
        return max(1, int(self.config.value_bytes_mean * factor))

    # ------------------------------------------------------------------
    def ops(self) -> Iterator[KVOp]:
        """The full operation stream, version by version.

        Within a version, the insertion of key *i* is interleaved with a
        deletion from the expiring version every ``insert_streams /
        delete_streams`` inserts — the 8-thread mix flattened into one
        deterministic sequence.
        """
        config = self.config
        interleave = max(1, config.insert_streams // max(1, config.delete_streams))
        for version in range(1, config.versions + 1):
            expired = version - config.retained_versions
            delete_queue: List[bytes] = (
                [self.key(i) for i in range(config.key_count)]
                if expired >= 1
                else []
            )
            deletes_done = 0
            for index in range(config.key_count):
                if config.dedup_ratio and self._random.random() < config.dedup_ratio:
                    value = None
                else:
                    value = make_value(
                        self.key(index), version, self._value_size(), config.seed
                    )
                yield KVOp(OpKind.PUT, self.key(index), version, value)
                if delete_queue and index % interleave == interleave - 1:
                    if deletes_done < len(delete_queue):
                        yield KVOp(
                            OpKind.DELETE, delete_queue[deletes_done], expired
                        )
                        deletes_done += 1
            # Drain any remaining deletions of the expired version.
            while delete_queue and deletes_done < len(delete_queue):
                yield KVOp(OpKind.DELETE, delete_queue[deletes_done], expired)
                deletes_done += 1


def run_fig5(
    key_count: int, value_bytes_mean: int, versions: int
) -> Dict[str, object]:
    """The Figure 5 experiment: one paced summary-index replay through
    QinDB and through the LSM baseline, on identical devices.

    ``repro fig5`` runs it small (8 KB values, 8 versions); the quick
    report needs the larger shape at which the LSM's compaction debt
    shows in its sustained write rate.
    """
    from repro.lsm.engine import LSMConfig, LSMEngine
    from repro.qindb.engine import QinDB, QinDBConfig
    from repro.ssd.timing import TimingModel
    from repro.workloads.chaos import row
    from repro.workloads.kvtrace import replay_trace

    timing = TimingModel(
        page_read_s=80e-6, page_write_s=400e-6, block_erase_s=2e-3,
        channel_parallelism=1,
    )
    workload = Fig5WorkloadConfig(
        key_count=key_count, value_bytes_mean=value_bytes_mean,
        versions=versions, retained_versions=4,
    )
    engines = []
    for name, engine in (
        (
            "QinDB",
            QinDB.with_capacity(
                64 * 1024 * 1024,
                config=QinDBConfig(segment_bytes=2 * 1024 * 1024),
                timing=timing,
            ),
        ),
        (
            "LSM",
            LSMEngine.with_capacity(
                64 * 1024 * 1024,
                config=LSMConfig(
                    memtable_bytes=512 * 1024,
                    level1_max_bytes=1024 * 1024,
                    max_file_bytes=128 * 1024,
                ),
                timing=timing,
            ),
        ),
    ):
        result = replay_trace(
            engine,
            Fig5Workload(workload).ops(),
            sample_interval_s=0.5,
            pace_user_bytes_per_s=3.5 * 1024 * 1024,
        )
        engines.append(
            {
                "engine": name,
                **row(result, "user_write_mean_mbs", "sys_write_mean_mbs"),
                **row(
                    result.final_stats,
                    "software_write_amplification", "total_write_amplification",
                ),
            }
        )
    return {"engines": engines}
