"""The LSM engine: LevelDB-shaped baseline with the QinDB interface.

Identical operation signatures to :class:`repro.qindb.QinDB` (versioned
``put``/``get``/``delete``, value-less deduplicated puts, traceback on
read, and the batch verbs a Mint node drives — here plain loops, an
LSM-tree has nothing to coalesce) so every experiment can swap engines
and isolate the storage layout:

* writes go WAL -> memtable -> L0 flush -> leveled compaction; the flush
  and compaction rewrites are the software write amplification;
* reads consult memtable, then L0 newest-first, then one candidate file
  per deeper level (bloom filters screen file probes);
* deletes are tombstones, shadowing older versions — which also means a
  deduplicated newer version whose base value was deleted *and compacted
  away* is unrecoverable here; QinDB's referent-aware GC is exactly the
  fix the paper adds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigError,
    EngineClosedError,
    KeyNotFoundError,
    StorageError,
)
from repro.core.metrics import BatchCounters
from repro.lsm.blockcache import BlockCache
from repro.lsm.compaction import Compactor, merge_tables
from repro.lsm.levels import LevelState
from repro.lsm.skiplist import SkipListMap
from repro.lsm.sstable import Composite, SSTable
from repro.lsm.wal import WriteAheadLog
from repro.qindb.records import Record, RecordType
from repro.ssd.device import SimulatedSSD
from repro.ssd.files import BlockFileSystem
from repro.ssd.ftl import FlashTranslationLayer
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import TimingModel


@dataclass(frozen=True)
class LSMConfig:
    """LevelDB 1.9-flavoured defaults."""

    memtable_bytes: int = 4 * 1024 * 1024
    l0_compaction_trigger: int = 4
    level1_max_bytes: int = 10 * 1024 * 1024
    level_size_multiplier: int = 10
    max_file_bytes: int = 2 * 1024 * 1024
    max_levels: int = 7
    #: records per sparse-index entry; lower it for large values so a
    #: point read does not drag a 16-record range off the device
    index_interval: int = 16
    #: LRU block cache for point reads; 0 disables (LevelDB defaults to
    #: 8 MB).  Compactions invalidate it wholesale — the paper's 2.1
    #: argument against LSM-trees in this role.
    block_cache_bytes: int = 0
    memtable_seed: int = 0x1E7E1DB
    cpu_per_step_s: float = 200e-9
    cpu_per_op_s: float = 2e-6
    cpu_per_bloom_check_s: float = 300e-9

    def __post_init__(self) -> None:
        if self.memtable_bytes <= 0:
            raise ConfigError("memtable_bytes must be positive")
        if self.l0_compaction_trigger < 2:
            raise ConfigError("l0_compaction_trigger must be >= 2")
        if min(self.cpu_per_step_s, self.cpu_per_op_s) < 0:
            raise ConfigError("CPU costs must be >= 0")


@dataclass
class LSMStats:
    """Counter snapshot mirroring :class:`repro.qindb.engine.QinDBStats`."""

    user_bytes_written: int
    user_bytes_read: int
    wal_bytes_written: int
    flush_bytes_written: int
    compaction_bytes_read: int
    compaction_bytes_written: int
    disk_used_bytes: int
    memtable_items: int
    sstable_count: int
    compaction_runs: int
    device_host_bytes_written: int
    device_total_bytes_written: int
    device_total_bytes_read: int
    hardware_write_amplification: float
    now: float
    # Batch-verb tallies, as in ``QinDBStats``.
    put_batches: int = 0
    batched_puts: int = 0
    get_batches: int = 0
    batched_gets: int = 0

    @property
    def engine_bytes_written(self) -> int:
        """All bytes the engine pushed at the filesystem."""
        return (
            self.wal_bytes_written
            + self.flush_bytes_written
            + self.compaction_bytes_written
        )

    @property
    def software_write_amplification(self) -> float:
        """Engine bytes written per user byte (the LSM's 20-25x)."""
        if self.user_bytes_written == 0:
            return 1.0
        return self.engine_bytes_written / self.user_bytes_written

    @property
    def total_write_amplification(self) -> float:
        """Physical device bytes programmed per user byte written."""
        if self.user_bytes_written == 0:
            return 1.0
        return self.device_total_bytes_written / self.user_bytes_written


class LSMEngine:
    """A leveled LSM-tree key-value engine on the simulated SSD."""

    def __init__(
        self,
        device: SimulatedSSD,
        config: LSMConfig | None = None,
        fs: BlockFileSystem | None = None,
    ) -> None:
        self.device = device
        self.config = config or LSMConfig()
        #: ``fs`` is recovery's: the files that survived a crash
        self.fs = fs or BlockFileSystem(FlashTranslationLayer(device))
        self.ftl = self.fs.ftl
        self.wal = WriteAheadLog(self.fs)
        self.levels = LevelState(max_levels=self.config.max_levels)
        self.compactor = Compactor(
            fs=self.fs,
            levels=self.levels,
            l0_trigger=self.config.l0_compaction_trigger,
            level1_max_bytes=self.config.level1_max_bytes,
            multiplier=self.config.level_size_multiplier,
            max_file_bytes=self.config.max_file_bytes,
            index_interval=self.config.index_interval,
        )
        self.block_cache = (
            BlockCache(self.config.block_cache_bytes)
            if self.config.block_cache_bytes > 0
            else None
        )
        self.compactor.block_cache = self.block_cache
        self._memtable = SkipListMap(seed=self.config.memtable_seed)
        self._memtable_bytes = 0
        self._sequence = 0
        self.user_bytes_written = 0
        self.user_bytes_read = 0
        self.flush_bytes_written = 0
        self.flush_count = 0
        self.batch_counters = BatchCounters()
        self._closed = False

    @classmethod
    def with_capacity(
        cls,
        capacity_bytes: int,
        config: LSMConfig | None = None,
        timing: TimingModel | None = None,
    ) -> "LSMEngine":
        """Convenience constructor: engine over a fresh device."""
        geometry = SSDGeometry.from_capacity(capacity_bytes)
        return cls(SimulatedSSD(geometry, timing=timing), config=config)

    # ------------------------------------------------------------------
    # Public operations (QinDB-compatible)
    # ------------------------------------------------------------------
    def put(self, key: bytes, version: int, value: Optional[bytes]) -> None:
        """Insert ``(key/version, value)``; None marks a deduplicated pair."""
        self._check_open()
        if not isinstance(key, bytes) or not key:
            raise StorageError("key must be non-empty bytes")
        if value is None:
            record = Record(RecordType.PUT_DEDUP, key, version)
        else:
            record = Record(RecordType.PUT_VALUE, key, version, value)
        self._apply(record)
        self.user_bytes_written += len(key) + (0 if value is None else len(value))

    def delete(self, key: bytes, version: int) -> None:
        """Write a tombstone for ``(key, version)``."""
        self._check_open()
        self._apply(Record(RecordType.DELETE, key, version))

    def get(self, key: bytes, version: int) -> bytes:
        """Read with traceback through deduplicated versions."""
        self._check_open()
        record = self._find((key, version), exact=True)
        self._charge_cpu()
        if record is None or record.type is RecordType.DELETE:
            raise KeyNotFoundError(f"no live item for {key!r}/{version}")
        if record.type is RecordType.PUT_DEDUP:
            value = self._traceback(key, version)
        else:
            value = record.value
        self.user_bytes_read += len(key) + len(value)
        return value

    def put_batch(
        self, items: Sequence[Tuple[bytes, int, Optional[bytes]]]
    ) -> None:
        """:meth:`put` per item, in input order."""
        for key, version, value in items:
            self.put(key, version, value)
        self.batch_counters.batches += 1
        self.batch_counters.batched_puts += len(items)

    def get_batch(
        self, items: Sequence[Tuple[bytes, int]]
    ) -> List[Optional[bytes]]:
        """:meth:`get` per item; ``None`` where it would raise
        :class:`KeyNotFoundError`."""
        values: List[Optional[bytes]] = []
        for key, version in items:
            try:
                values.append(self.get(key, version))
            except KeyNotFoundError:
                values.append(None)
        self.batch_counters.get_batches += 1
        self.batch_counters.batched_gets += len(items)
        return values

    def delete_batch(self, items: Sequence[Tuple[bytes, int]]) -> None:
        """:meth:`delete` per item, in input order."""
        for key, version in items:
            self.delete(key, version)

    def retire_version(self, version: int) -> int:
        """Tombstone every live record of ``version``, found in one walk
        of the merged records; returns how many."""
        self._check_open()
        items = [
            (record.key, version)
            for record in merge_tables(self._sources())
            if record.version == version
            and record.type is not RecordType.DELETE
        ]
        self.delete_batch(items)
        return len(items)

    def exists(self, key: bytes, version: int) -> bool:
        """Whether a live (non-tombstoned) record exists."""
        self._check_open()
        record = self._find((key, version), exact=True)
        return record is not None and record.type is not RecordType.DELETE

    def restore(self, key: bytes, version: int) -> bool:
        """Never: a put overwrites a deleted record here."""
        return False

    def peek(self, key: bytes, version: int):
        """Repair read, ``(value, deduplicated)`` or ``None``, through
        the user read path: the copy materialises as a full value."""
        value = self.get_batch([(key, version)])[0]
        return None if value is None else (value, False)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _apply(self, record: Record) -> None:
        self.wal.append(record)
        self._memtable.insert((record.key, record.version), record)
        self._memtable_bytes += record.encoded_size
        self._charge_cpu()
        if self._memtable_bytes >= self.config.memtable_bytes:
            self.flush_memtable()

    def flush_memtable(self) -> None:
        """Write the memtable as an L0 table, then settle compactions."""
        self._check_open()
        if len(self._memtable) == 0:
            return
        records = [record for _key, record in self._memtable]
        sequence = self._next_sequence()
        table = SSTable.write(
            self.fs,
            f"sst-{sequence:08d}.ldb",
            records,
            sequence,
            index_interval=self.config.index_interval,
        )
        table.cache = self.block_cache
        self.flush_bytes_written += table.size
        self.flush_count += 1
        self.levels.add(0, table)
        self._memtable = SkipListMap(seed=self.config.memtable_seed)
        self._memtable_bytes = 0
        self.wal.reset()
        self.compactor.run_pending(self._next_sequence)

    def _next_sequence(self) -> int:
        self._sequence += 1
        return self._sequence

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _find(self, target: Composite, exact: bool) -> Optional[Record]:
        """Newest-wins lookup across memtable and levels.

        With ``exact=False`` this performs a *floor* search (greatest
        composite <= target), resolving equal composites newest-first.
        """
        key, version = target
        if exact:
            record = self._memtable.get(target, default=None)
            if record is not None:
                return record
            for table in self.levels.level(0):
                self.device.advance(self.config.cpu_per_bloom_check_s)
                found = table.get(key, version)
                if found is not None:
                    return found
            for level in range(1, self.levels.max_levels):
                table = self.levels.candidate(level, target)
                if table is None:
                    continue
                self.device.advance(self.config.cpu_per_bloom_check_s)
                found = table.get(key, version)
                if found is not None:
                    return found
            return None

        # Floor search: best (greatest) candidate wins; ties go to the
        # newest source, which is the order we probe in.
        best: Optional[Record] = None
        best_key: Optional[Composite] = None

        def consider(candidate: Optional[Record]) -> None:
            nonlocal best, best_key
            if candidate is None:
                return
            composite = (candidate.key, candidate.version)
            if best_key is None or composite > best_key:
                best, best_key = candidate, composite

        entry = self._memtable.floor(target)
        if entry is not None:
            consider(entry[1])
        for table in self.levels.level(0):
            if (best_key is None or table.max_key > best_key) and not (
                target < table.min_key
            ):
                candidate = table.floor(target)
                if candidate is not None:
                    composite = (candidate.key, candidate.version)
                    if best_key is None or composite > best_key:
                        consider(candidate)
        for level in range(1, self.levels.max_levels):
            for table in self.levels.floor_candidates(level, target):
                if best_key is not None and table.max_key <= best_key:
                    continue  # an equal/newer source already answered
                consider(table.floor(target))
        return best

    def _traceback(self, key: bytes, version: int) -> bytes:
        """Find the newest older version that still carries a value."""
        current = version
        while current > 0:
            record = self._find((key, current - 1), exact=False)
            self._charge_cpu()
            if record is None or record.key != key:
                break
            if record.type is RecordType.PUT_VALUE:
                return record.value
            # A tombstone or another deduplicated marker: step below it.
            current = record.version
        raise KeyNotFoundError(
            f"dedup chain for {key!r}/{version} reaches no stored value"
        )

    def _sources(self) -> List[Iterator[Record]]:
        """Every record source, newest first: the memtable, then each
        level's tables (the order :func:`merge_tables` shadows by)."""
        sources = [(record for _key, record in self._memtable)]
        sources += [t.iter_records() for t in self.levels.level(0)]
        for level in range(1, self.levels.max_levels):
            for table in self.levels.level(level):
                sources.append(table.iter_records())
        return sources

    def _charge_cpu(self) -> None:
        steps = self._memtable.last_search_steps
        self.device.advance(
            self.config.cpu_per_op_s + steps * self.config.cpu_per_step_s
        )

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosedError("engine is closed")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> LSMStats:
        """Snapshot every counter the experiments plot."""
        counters = self.device.counters
        return LSMStats(
            user_bytes_written=self.user_bytes_written,
            user_bytes_read=self.user_bytes_read,
            wal_bytes_written=self.wal.bytes_written,
            flush_bytes_written=self.flush_bytes_written,
            compaction_bytes_read=self.compactor.bytes_read,
            compaction_bytes_written=self.compactor.bytes_written,
            disk_used_bytes=self.fs.used_bytes,
            memtable_items=len(self._memtable),
            sstable_count=self.levels.total_files(),
            compaction_runs=self.compactor.runs,
            device_host_bytes_written=counters.host_bytes_written,
            device_total_bytes_written=counters.total_bytes_written,
            device_total_bytes_read=counters.total_bytes_read,
            hardware_write_amplification=counters.hardware_write_amplification,
            now=self.device.now,
            put_batches=self.batch_counters.batches,
            batched_puts=self.batch_counters.batched_puts,
            get_batches=self.batch_counters.get_batches,
            batched_gets=self.batch_counters.batched_gets,
        )

    def flush(self) -> None:
        """Flush the memtable (used before crash tests and comparisons)."""
        self.flush_memtable()

    def restart(self) -> "LSMEngine":
        """Power-fail this engine and return the one recovery rebuilds
        from the manifest and the surviving WAL."""
        from repro.lsm.recovery import crash, recover

        return recover(crash(self))
