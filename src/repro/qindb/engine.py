"""The QinDB storage engine: memtable + AOFs + lazy GC.

The engine wires the paper's pieces together over one simulated SSD:

* :meth:`QinDB.put_batch` appends the (possibly value-less) records to
  the active AOF back-to-back, page programs coalesced, and inserts the
  memtable items — no disk sorting, ever, and no re-put of a held item;
* :meth:`QinDB.get_batch` resolves deduplicated items by *traceback*:
  walk to older versions of the same key until one carries a value;
* :meth:`QinDB.delete_batch` only sets the ``d`` flag and updates the GC
  table (plus a small tombstone append so deletes survive recovery);
  :meth:`QinDB.retire_version` — how a node evicts a whole version — is
  one step per version: the ``d`` flag on every item of the version's
  run, the run's bytes dead in the GC table per segment, and one
  ``RETIRE`` frame in place of a tombstone per item;
* :meth:`QinDB.put` / :meth:`~QinDB.get` / :meth:`~QinDB.delete` — the
  paper's Figure 2 verbs — are those three with a batch of one: there is
  one write path, one read path and one delete path;
* the **lazy GC** collects a segment when its occupancy falls to the
  threshold, *deferring* while reads are in flight and free space remains;
  collection re-appends live records and dead-but-referenced records (a
  newer deduplicated version still resolves to them), then erases the
  whole segment — block-aligned, so the device GC never runs.  Which
  frames survive is one question to the memtable per victim
  (:meth:`~repro.qindb.memtable.Memtable.survivors`).

Time: every operation charges its I/O to the simulated device and its CPU
work (memtable search comparisons) to the device clock, so ``device.now``
deltas are operation latencies and counter deltas over time are
throughputs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    ConfigError,
    CorruptionError,
    EngineClosedError,
    KeyNotFoundError,
    StorageError,
)
from repro.core.metrics import BatchCounters
from repro.obs.tracer import UNTRACED
from repro.qindb.aof import AofManager, RecordLocation, run_locations
from repro.qindb.gctable import GCTable
from repro.qindb.memtable import ItemColumns, Memtable
from repro.qindb.readcache import RecordCache
from repro.qindb.records import (
    HEADER_SIZE,
    Bodies,
    Frames,
    RecordType,
    build_bodies,
    frame_heads,
)
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import TimingModel


@dataclass(frozen=True)
class QinDBConfig:
    """Tunables for one engine instance.

    Defaults follow the paper: 64 MB AOF segments, GC at 25% occupancy,
    lazy deferral while reads are in flight and free space remains.
    """

    segment_bytes: int = 64 * 1024 * 1024
    gc_occupancy_threshold: float = 0.25
    #: GC stops deferring once the device's free pool shrinks to this many
    #: blocks ("free disk space" in the paper's deferral rule).
    gc_defer_min_free_blocks: int = 16
    #: when False, GC never runs on its own (for ablations).
    gc_enabled: bool = True
    #: "native" = the paper's block-aligned path; "filesystem" routes the
    #: AOFs through the conventional FTL path (ablation A2).
    aof_backend: str = "native"
    #: checkpoint the memtable every this-many appended bytes (the
    #: paper's "checkpointed periodically"); None disables.
    checkpoint_interval_bytes: Optional[int] = None
    #: CPU cost charged per memtable comparison and per operation.
    cpu_per_step_s: float = 200e-9
    cpu_per_op_s: float = 2e-6
    #: byte budget for the record read cache; ``None``/``0`` disables it
    #: (the paper's configuration — every read is one positioned SSD
    #: access — and what keeps the reproduced figures unchanged).
    read_cache_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.segment_bytes <= 0:
            raise ConfigError("segment_bytes must be positive")
        if not 0.0 < self.gc_occupancy_threshold < 1.0:
            raise ConfigError("gc_occupancy_threshold must be in (0, 1)")
        if self.gc_defer_min_free_blocks < 0:
            raise ConfigError("gc_defer_min_free_blocks must be >= 0")
        if self.aof_backend not in ("native", "filesystem"):
            raise ConfigError(f"unknown aof_backend {self.aof_backend!r}")
        if (
            self.checkpoint_interval_bytes is not None
            and self.checkpoint_interval_bytes <= 0
        ):
            raise ConfigError("checkpoint_interval_bytes must be positive")
        if self.cpu_per_step_s < 0 or self.cpu_per_op_s < 0:
            raise ConfigError("CPU costs must be >= 0")
        if self.read_cache_bytes is not None and self.read_cache_bytes < 0:
            raise ConfigError("read_cache_bytes must be >= 0")


@dataclass
class QinDBStats:
    """A point-in-time snapshot of engine counters."""

    user_bytes_written: int
    user_bytes_read: int
    aof_bytes_appended: int
    disk_used_bytes: int
    memtable_items: int
    memtable_bytes: int
    segment_count: int
    gc_runs: int
    gc_bytes_reappended: int
    device_host_bytes_written: int
    device_total_bytes_written: int
    device_total_bytes_read: int
    hardware_write_amplification: float
    now: float
    # Record read cache (all zero while the cache is disabled).
    read_cache_hits: int = 0
    read_cache_misses: int = 0
    read_cache_evictions: int = 0
    read_cache_invalidated: int = 0
    read_cache_used_bytes: int = 0
    # ``put_batch`` calls and their items (a ``put`` is one of one).
    put_batches: int = 0
    batched_puts: int = 0
    # ``get_batch`` calls and their items (a ``get`` is one of one).
    get_batches: int = 0
    batched_gets: int = 0
    #: host program commands the device served; batched appends coalesce
    #: contiguous pages so this falls while pages written stays equal
    device_write_ops: int = 0
    #: automatic collections that met a corrupt victim and quarantined it
    gc_corrupt_victims: int = 0

    @property
    def read_cache_hit_rate(self) -> float:
        """Hit share of all cache lookups (0.0 when the cache is off)."""
        lookups = self.read_cache_hits + self.read_cache_misses
        return self.read_cache_hits / lookups if lookups else 0.0

    @property
    def software_write_amplification(self) -> float:
        """Engine bytes appended per user byte written (>= 1.0)."""
        if self.user_bytes_written == 0:
            return 1.0
        return self.aof_bytes_appended / self.user_bytes_written

    @property
    def total_write_amplification(self) -> float:
        """Physical device bytes programmed per user byte written."""
        if self.user_bytes_written == 0:
            return 1.0
        return self.device_total_bytes_written / self.user_bytes_written


def _retire_frames(version: int, sequences: range) -> Frames:
    """The one ``RETIRE`` frame of ``version`` at ``sequences``."""
    bodies, checksums = build_bodies(
        [int(RecordType.RETIRE)], [b""], [version], [b""]
    )
    return Frames.of(frame_heads(sequences, checksums), bodies)


class QinDB:
    """The Quick-Indexing Database — one storage node's engine."""

    def __init__(
        self,
        device: SimulatedSSD,
        config: QinDBConfig | None = None,
        aofs: AofManager | None = None,
    ) -> None:
        self.device = device
        self.config = config or QinDBConfig()
        #: ``aofs`` is recovery's: the segments that survived a crash
        self.aofs = aofs if aofs is not None else AofManager(
            device,
            segment_bytes=self.config.segment_bytes,
            backend=self.config.aof_backend,
        )
        self.memtable = Memtable()
        self.gc_table = GCTable(threshold=self.config.gc_occupancy_threshold)
        self.read_cache: Optional[RecordCache] = (
            RecordCache(self.config.read_cache_bytes)
            if self.config.read_cache_bytes
            else None
        )
        self.user_bytes_written = 0
        self.user_bytes_read = 0
        self.gc_runs = 0
        self.gc_bytes_reappended = 0
        #: segments whose frames failed verification under an automatic
        #: collection; never nominated again on this engine
        self.gc_quarantined: set = set()
        self.gc_corrupt_victims = 0
        self.batch_counters = BatchCounters()
        self.reads_in_flight = 0
        self._gc_since_checkpoint = False
        self._closed = False
        self._sequence = 0
        #: the newest periodic checkpoint, if auto-checkpointing is on
        self.latest_checkpoint = None
        self._bytes_at_last_checkpoint = 0
        #: trace track (``obs.TraceTrack`` on the device clock) carrying
        #: GC-sweep and checkpoint spans; untraced until bound
        self.trace = UNTRACED

    def bind_trace(self, track) -> None:
        """Attach a trace track for engine-level spans.

        The track should run on *this engine's device clock* (e.g.
        ``tracer.track(name, clock=engine.device)``): GC and checkpoints
        happen in device time, not backbone-simulation time.
        """
        self.trace = track

    @classmethod
    def with_capacity(
        cls,
        capacity_bytes: int,
        config: QinDBConfig | None = None,
        timing: TimingModel | None = None,
    ) -> "QinDB":
        """Convenience constructor: engine over a fresh device."""
        geometry = SSDGeometry.from_capacity(capacity_bytes)
        return cls(SimulatedSSD(geometry, timing=timing), config=config)

    # ------------------------------------------------------------------
    # Mutated operations (paper Figure 2)
    # ------------------------------------------------------------------
    def put(self, key: bytes, version: int, value: Optional[bytes]) -> None:
        """Store ``(key/version, value)``; ``value=None`` means the pair
        was deduplicated upstream and arrives value-less.  A
        :meth:`put_batch` of one, charged as any batch (EXPERIMENTS.md
        A20)."""
        self.put_batch([(key, version, value)])

    def put_batch(
        self, items: Sequence[Tuple[bytes, int, Optional[bytes]]]
    ) -> None:
        """Store a batch of ``(key, version, value)`` triples in one pass.

        The batched write path.  ``items`` with bodies
        (:class:`~repro.qindb.records.Bodies` — built here from plain
        triples, or upstream once for every replica of the batch; the
        same code runs either way) is validated whole before anything is
        touched: a ``(key, version)`` repeated or already held (live or
        deleted) raises :class:`~repro.errors.DuplicateItemError`.  Per
        record this engine then draws the next sequence number (input
        order, exactly as sequential puts would) and takes the batch's
        frames at those sequences
        (:meth:`~repro.qindb.records.Bodies.frames`: one 8-byte CRC
        update seeded with the body checksum and one head per record,
        the pieces and the sequence column, made by the first replica to
        frame the batch there); the frames go down as one extent per
        segment (the flash keeps the batch's pieces and starts by
        reference, one object on every replica that shares them), so the
        AOF/device layer can coalesce contiguous block-aligned pages into
        multi-page device programs.  The append answers with one run per
        segment it wrote, and the memtable takes the whole batch as
        columns — the batch's :class:`~repro.qindb.memtable.ItemColumns`
        (derived once for every replica), the sequences, and the runs'
        segment and offset columns (built once per distinct runs, so
        replicas at the same AOF position copy one pair of arrays) — in
        one :meth:`~repro.qindb.memtable.Memtable.put_batch`.  CPU charging,
        the GC check, and the checkpoint check run once per batch
        instead of once per key.

        The stored state — memtable items, sequence numbers, GC-table
        accounting, AOF bytes, recovery contents — is identical to
        issuing the same items through sequential :meth:`put` calls; only
        the simulated time and the batch counters differ.
        """
        self._check_open()
        batch = Bodies.of(items)
        if not batch:
            return
        items = batch.shared(ItemColumns, ItemColumns.of_batch)
        self.memtable.check_new(items)
        frames = batch.frames(self._draw_sequences(len(batch)))
        runs = self.aofs.append_frames(frames)
        for run in runs:
            self.gc_table.record_appended(run.segment_id, run.nbytes)
        self.memtable.put_batch(
            items,
            frames.sequences,
            *batch.shared(
                (run_locations, *runs),
                lambda _batch: run_locations(runs, frames.starts),
            ),
            frames.lengths,
        )
        self.user_bytes_written += frames.starts[-1] - HEADER_SIZE * len(batch)
        self.batch_counters.batches += 1
        self.batch_counters.batched_puts += len(batch)
        self._charge_cpu()
        self._maybe_gc()
        self._maybe_checkpoint()

    def get(self, key: bytes, version: int) -> bytes:
        """Fetch the value of ``(key, version)``, tracebacking through
        deduplicated versions — a :meth:`get_batch` of one; raises
        :class:`KeyNotFoundError` where that reads ``None``."""
        value = self.get_batch([(key, version)])[0]
        if value is None:
            raise KeyNotFoundError(
                f"no live item for {key!r}/{version}, or its dedup chain "
                f"reaches no stored value"
            )
        return value

    def get_batch(
        self, items: Sequence[Tuple[bytes, int]]
    ) -> List[Optional[bytes]]:
        """Fetch a batch of ``(key, version)`` values in one engine pass.

        The batched read path, mirroring what :meth:`put_batch` did for
        writes:

        * the location each item reads — its own, or its traceback
          base's — comes from one
          :meth:`~repro.qindb.memtable.Memtable.resolve_batch`, charged
          as one memtable search plus a step per further item and per
          traceback hop;
        * the read cache is probed first per distinct location, so a hot
          record cached once serves every batch slot that resolves to it;
        * cache misses deduplicate by :class:`RecordLocation` — a zipfian
          batch full of hot keys pays one positioned device read where
          the per-key loop pays one per request — and the survivors issue
          as coalesced multi-page reads
          (:meth:`~repro.qindb.aof.AofManager.read_values`), charging the
          device per *batch* instead of per key.

        Returns one entry per item, in input order: the value bytes, or
        ``None`` where :meth:`get` would raise
        :class:`~repro.errors.KeyNotFoundError` (absent, deleted, or a
        broken dedup chain) — per-slot sentinels let the replica layer
        fail over individual keys without losing the rest of the batch.
        The values and ``user_bytes_read`` accounting are byte-identical
        to sequential :meth:`get` calls; only the simulated time and the
        batch counters differ.
        """
        self._check_open()
        if not items:
            return []
        locations = self.memtable.resolve_batch(items)
        self._charge_cpu()
        if len(locations) == 1:  # one item: nothing to deduplicate
            distinct, slots = [] if locations[0] is None else locations, [(0,)]
        else:
            #: location -> result slots it satisfies (dedup happens here)
            need: Dict[RecordLocation, List[int]] = {}
            for index, location in enumerate(locations):
                if location is not None:
                    need.setdefault(location, []).append(index)
            distinct, slots = list(need), list(need.values())
        results: List[Optional[bytes]] = [None] * len(items)
        cache = self.read_cache
        if cache is not None:
            misses, missed_slots = [], []
            for location, indices in zip(distinct, slots):
                value = cache.get(location)
                if value is None:
                    misses.append(location)
                    missed_slots.append(indices)
                    continue
                self.device.advance(self.config.cpu_per_op_s)
                for index in indices:
                    results[index] = value
            distinct, slots = misses, missed_slots
        if distinct:
            values = self.aofs.read_values(distinct)
            for location, indices, value in zip(distinct, slots, values):
                if cache is not None:
                    cache.put(location, value)
                for index in indices:
                    results[index] = value
        user_bytes = 0
        for item, value in zip(items, results):
            if value is not None:
                user_bytes += len(item[0]) + len(value)
        self.user_bytes_read += user_bytes
        self.batch_counters.get_batches += 1
        self.batch_counters.batched_gets += len(items)
        return results

    def delete(self, key: bytes, version: int) -> None:
        """Flag ``(key, version)`` deleted: a :meth:`delete_batch` of one."""
        self.delete_batch([(key, version)])

    def delete_batch(self, items: Sequence[Tuple[bytes, int]]) -> None:
        """Flag a batch of ``(key, version)`` items deleted in one pass.

        The data is *not* touched; reclamation happens when a segment's
        occupancy crosses the threshold and the lazy GC collects it.  All
        items (dropping a retired index version deletes every key it
        ingested) are validated before
        any state changes — a missing or already-deleted item (including
        a duplicate within the batch) raises :class:`KeyNotFoundError`
        with the engine untouched — then the flags and GC accounting
        apply and the tombstones append back-to-back through
        ``append_frames``, coalescing their page programs the
        same way :meth:`put_batch` does.  CPU charging and the
        GC/checkpoint polls run once per batch.
        """
        self._check_open()
        if not items:
            return
        resolved = self.memtable.get_batch(items)
        seen: set = set()
        for (key, version), item in zip(items, resolved):
            if item is None or item[2] or (key, version) in seen:
                raise KeyNotFoundError(f"no live item for {key!r}/{version}")
            seen.add((key, version))
        keys, versions = zip(*items)
        bodies, checksums = build_bodies(
            repeat(int(RecordType.DELETE)), keys, versions, repeat(b"")
        )
        self.memtable.mark_deleted_batch(items)
        sequences = self._draw_sequences(len(bodies))
        self.gc_table.record_dead_many([item[0] for item in resolved])
        self._append_dead(Frames.of(frame_heads(sequences, checksums), bodies))
        self._charge_cpu()
        self._maybe_gc()
        self._maybe_checkpoint()

    def retire_version(self, version: int) -> int:
        """Delete every live record of ``version`` in one step; returns
        how many.

        The version's run flags all its items deleted in one pass
        (:meth:`~repro.qindb.memtable.Memtable.retire`), their bytes go
        dead in the GC table with one entry per segment they occupy, and
        one ``RETIRE`` frame — dead on arrival, like a tombstone — makes
        it survive recovery.  Charged as one memtable search; the
        GC/checkpoint polls run once, as for a :meth:`delete_batch`.  A
        version with no live item writes nothing.  Replicas retiring one
        shared run take the retired run and, at equal sequences, the
        ``RETIRE`` frame the first of them made.
        """
        self._check_open()
        count, dead = self.memtable.retire(version)
        if not count:
            return 0
        for segment_id, nbytes in dead.items():
            self.gc_table.record_dead(segment_id, nbytes)
        sequences = self._draw_sequences(1)
        self._append_dead(self.memtable.shared(
            version, ("retire", sequences.start),
            lambda: _retire_frames(version, sequences),
        ))
        self._charge_cpu()
        self._maybe_gc()
        self._maybe_checkpoint()
        return count

    def restore(self, key: bytes, version: int) -> bool:
        """Make a deleted ``(key, version)`` live again from its own frame
        (charged only if it does): how a node takes back a record it
        withdrew.  In memory only, like an unflushed put: a crash before
        GC drops the tombstone deletes it again, and repair restores it."""
        self._check_open()
        item = self.memtable.get(key, version)
        if item is None or not item[2]:  # absent, or live
            return False
        self.memtable.restore(key, version)
        (segment_id, _offset, length), _r, _d, _s = item
        self.gc_table.record_dead(segment_id, -length)  # live again
        self._charge_cpu()
        return True

    def exists(self, key: bytes, version: int) -> bool:
        """Whether a live (non-deleted) item exists for (key, version)."""
        self._check_open()
        item = self.memtable.get(key, version)
        self._charge_cpu()
        return item is not None and not item[2]  # the d flag

    def holds(self, key: bytes, version: int) -> bool:
        """Whether *any* record — live or deleted — is stored for
        ``(key, version)``.  Deleted-but-referenced dedup bases count:
        elastic migration uses this to check a chain base landed."""
        self._check_open()
        item = self.memtable.get(key, version)
        self._charge_cpu()
        return item is not None

    def chain_base(self, key: bytes, version: int):
        """Where a value-less ``(key, version)`` record's traceback lands.

        Returns ``(base_version, value, deleted)`` for the nearest older
        value-bearing record — the ``d`` flag is ignored, per the GC's
        referent rule, and reported so a migrator can reproduce the base
        *as stored* — or ``None`` when the record is absent or carries
        its own value (no base needed).  Raises
        :class:`KeyNotFoundError` when the record is value-less but no
        stored base resolves it (a partial copy: this replica cannot
        serve as a chain source).  Maintenance read, like :meth:`peek`:
        no user-read accounting.
        """
        found = self._chain_base(key, version)
        if found is None:
            return None
        base_version, (location, _deduplicated, deleted, _sequence) = found
        return (base_version, self._read_value(location), deleted)

    def chain_base_version(self, key: bytes, version: int) -> Optional[int]:
        """The version :meth:`chain_base` resolves to, from the memtable
        alone: no value is read from flash, so a damaged base goes
        unnoticed here.  Same ``None`` and :class:`KeyNotFoundError`."""
        found = self._chain_base(key, version)
        return None if found is None else found[0]

    def _chain_base(self, key: bytes, version: int):
        """``(base_version, base item)`` of :meth:`chain_base`, unread."""
        self._check_open()
        target = self.memtable.get(key, version)
        self._charge_cpu()
        if target is None or not target[1]:  # absent, or carries a value
            return None
        for base_version, base in self.memtable.older_versions(key, version):
            if not base[1]:  # value-bearing
                return base_version, base
        raise KeyNotFoundError(
            f"dedup chain for {key!r}/{version} reaches no stored value"
        )

    def peek(self, key: bytes, version: int):
        """Raw repair read: the record *as stored*, or ``None``.

        Returns ``(value, deduplicated)`` — ``(None, True)`` for a
        value-less deduplicated record — so replica repair can copy the
        exact representation to a rebuilding peer instead of materialising
        the dedup chain through :meth:`get` (which would inflate the peer
        and break byte-identical equivalence with an unfaulted run).
        Absent or deleted items return ``None``; no user-read accounting,
        since this is maintenance traffic, not a front-end read.
        """
        self._check_open()
        item = self.memtable.get(key, version)
        self._charge_cpu()
        if item is None or item[2]:  # absent, or the d flag
            return None
        location, deduplicated, _deleted, _sequence = item
        if deduplicated:
            return (None, True)
        return (self._read_value(location), False)

    def scan(
        self, start_key: bytes, end_key: bytes
    ) -> Iterator[Tuple[bytes, int, bytes]]:
        """Yield ``(key, version, value)`` for live items in key range.

        This is the range-query capability hash-indexed stores lack (the
        paper's motivation for a *sorted* memtable).

        The generator holds a read-in-flight slot while it is being
        consumed, so the lazy GC's deferral rule sees an active scan the
        same way it sees an active get — without it, a concurrent put
        could trigger a collection that erases a segment the scan's
        pending items still point at.
        """
        self._check_open()
        self.reads_in_flight += 1
        try:
            for key, version, item in self.memtable.scan(start_key, end_key):
                location, deduplicated, deleted, _sequence = item
                if deleted:
                    continue
                if deduplicated:
                    yield key, version, self._traceback(key, version)
                else:
                    yield key, version, self._read_value(location)
        finally:
            self.reads_in_flight -= 1

    # ------------------------------------------------------------------
    def _read_value(self, location: RecordLocation) -> bytes:
        """Fetch a record's value: cache first, then the positioned read.

        A hit charges CPU only — no device I/O; a miss pays the device
        access and populates the cache, so a dedup chain's shared base
        record is cached once under its own location for every version
        that resolves to it.
        """
        cache = self.read_cache
        if cache is not None:
            value = cache.get(location)
            if value is not None:
                self.device.advance(self.config.cpu_per_op_s)
                return value
        value = self.aofs.read_values([location])[0]
        if cache is not None:
            cache.put(location, value)
        return value

    def _traceback(self, key: bytes, version: int) -> bytes:
        """The paper's traceback: nearest older version with a value.

        Older versions are consulted regardless of their ``d`` flag — a
        deleted record's value remains usable until GC reclaims it, which
        is exactly why GC must re-append referenced dead records.
        """
        location = self.memtable.resolve_batch([(key, version)])[0]
        self._charge_cpu()
        if location is None:
            raise KeyNotFoundError(
                f"dedup chain for {key!r}/{version} reaches no stored value"
            )
        return self._read_value(location)

    def _append_dead(self, frames: Frames) -> None:
        """Append frames that are dead on arrival (tombstones, ``RETIRE``
        frames) and book their bytes so."""
        for run in self.aofs.append_frames(frames):
            self.gc_table.record_appended(run.segment_id, run.nbytes)
            self.gc_table.record_dead(run.segment_id, run.nbytes)

    def _draw_sequences(self, count: int) -> range:
        """The next ``count`` logical sequence numbers, consumed."""
        first = self._sequence + 1
        self._sequence += count
        return range(first, first + count)

    def _charge_cpu(self) -> None:
        steps = self.memtable.last_search_steps
        self.device.advance(
            self.config.cpu_per_op_s + steps * self.config.cpu_per_step_s
        )

    def _check_open(self) -> None:
        if self._closed:
            raise EngineClosedError("engine is closed")

    # ------------------------------------------------------------------
    # Lazy garbage collection
    # ------------------------------------------------------------------
    def _maybe_gc(self) -> None:
        if not self.config.gc_enabled:
            return
        exclude = set(self.gc_quarantined)
        active = self.aofs.active_segment_id
        if active is not None:
            exclude.add(active)
        victims = self.gc_table.victims(exclude=exclude)
        if not victims:
            return
        if self._should_defer():
            return
        # Recycle one file per trigger (the paper GCs per-file): the cost
        # amortizes across mutations instead of stalling writes in one
        # burst, which is what keeps QinDB's user-write rate smooth
        # (Figure 6b).
        try:
            self.collect_segment(victims[0])
        except CorruptionError:
            # The write that polled us is already applied and must not
            # fail because maintenance did.  Verification precedes
            # mutation, so nothing moved: leave the victim where it is
            # and stop nominating it (it would fail the same way on
            # every later batch).  An explicit ``collect_segment`` still
            # raises.
            self.gc_quarantined.add(victims[0])
            self.gc_corrupt_victims += 1
            self.trace.tracer.instant(
                "gc_corrupt_victim", track=self.trace.name,
                at=self.device.now, segment=victims[0],
            )

    def _maybe_checkpoint(self) -> None:
        """Periodic checkpointing (paper: "it is checkpointed
        periodically"): snapshot the memtable every N appended bytes so
        a crash replays only the tail past the watermark."""
        interval = self.config.checkpoint_interval_bytes
        if interval is None:
            return
        appended = self.aofs.bytes_appended
        if appended - self._bytes_at_last_checkpoint < interval:
            return
        from repro.qindb.checkpoint import Checkpoint

        with self.trace.span("checkpoint", appended_bytes=appended):
            if self.latest_checkpoint is not None:
                self.latest_checkpoint.discard()
            self.latest_checkpoint = Checkpoint.write(self)
        self._bytes_at_last_checkpoint = appended

    @property
    def checkpoint_valid(self) -> bool:
        """Whether :attr:`latest_checkpoint` still matches the AOFs.

        A GC run moves records, invalidating the checkpoint's locations;
        recovery then falls back to the full scan.
        """
        return self.latest_checkpoint is not None and not self._gc_since_checkpoint

    def _should_defer(self) -> bool:
        """The paper's lazy rule: defer while reads are in flight and
        there is still free disk space."""
        if self.reads_in_flight <= 0:
            return False
        return self.device.free_block_count > self.config.gc_defer_min_free_blocks

    def collect_segment(self, segment_id: int) -> None:
        """Collect one AOF segment (paper Figure 2, steps 3-6).

        Live records and dead records still referenced by newer
        deduplicated versions are re-appended (and the memtable offsets
        updated); unreferenced dead records vanish, and their flagged
        items are dropped from the memtable.  Finally the segment is
        erased wholesale.
        """
        self._check_open()
        if segment_id == self.aofs.active_segment_id:
            raise StorageError("cannot collect the active segment")
        with self.trace.span("gc_sweep", segment=segment_id) as opened:
            opened.attrs.update(self._collect_segment(segment_id))

    def _collect_segment(self, segment_id: int) -> Dict[str, int]:
        """Verify every frame, ask the memtable which survive, move them
        verbatim.

        ``read_frames`` checks the whole victim *before any state is
        touched*: a corrupt one raises with the engine unchanged.  A
        re-append keeps the original sequence, so a survivor moves as the
        head and body objects just walked: nothing is re-encoded or copied.
        Replicas that hold the victim alike share its walk, and with it
        the survivors, the moved frames and their new locations, each
        made by the first (:class:`~repro.qindb.records.FrameWalk`).
        """
        frames, heads, bodies, _torn = self.aofs.segment(segment_id).read_frames()
        if self.read_cache is not None:
            # Surviving records move to new locations and the segment's
            # blocks are erased; cached values keyed into it must die
            # before the erase or a later lookup could serve bytes the
            # device no longer holds.
            self.read_cache.invalidate_segment(segment_id)
        memtable = self.memtable
        items_before = len(memtable)
        kept, owners, dead = memtable.survivors(segment_id, frames)
        chosen = array("q", kept).tobytes()
        moved = frames.shared(("moved", chosen), lambda _walk: Frames.of(
            [heads[index] for index in kept], [bodies[index] for index in kept]
        ))
        runs = self.aofs.append_frames(moved)
        memtable.relocate(
            owners,
            *frames.shared(
                ("locations", chosen, *runs),
                lambda _walk: run_locations(runs, moved.starts),
            ),
            moved.lengths,
        )
        for run in runs:
            self.gc_table.record_appended(run.segment_id, run.nbytes)
            self.gc_bytes_reappended += run.nbytes
            #: tombstones and referenced-but-dead frames stay "dead" in
            #: the accounting so their new segment can still reach the
            #: threshold
            at = slice(run.first, run.first + run.count)
            if any(dead[at]):
                self.gc_table.record_dead(
                    run.segment_id, sum(compress(moved.lengths[at], dead[at]))
                )
        if kept:
            # Program the moved frames before the erase: left in the
            # active segment's fill buffer, a crash would lose them.
            self.aofs.flush()
        self.gc_table.forget(segment_id)
        self.aofs.drop_segment(segment_id)
        self.gc_runs += 1
        self._gc_since_checkpoint = True
        return {
            "frames": len(frames),
            "moved": len(kept),
            "dropped": items_before - len(memtable),
            "tombstones_carried": owners.count(None),
            "bytes_moved": sum(run.nbytes for run in runs),
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> QinDBStats:
        """Snapshot every counter the experiments plot."""
        counters = self.device.counters
        cache = self.read_cache
        cache_counters = cache.counters if cache is not None else None
        return QinDBStats(
            read_cache_hits=cache_counters.hits if cache_counters else 0,
            read_cache_misses=cache_counters.misses if cache_counters else 0,
            read_cache_evictions=(
                cache_counters.evictions if cache_counters else 0
            ),
            read_cache_invalidated=(
                cache_counters.invalidated if cache_counters else 0
            ),
            read_cache_used_bytes=cache.used_bytes if cache else 0,
            put_batches=self.batch_counters.batches,
            batched_puts=self.batch_counters.batched_puts,
            get_batches=self.batch_counters.get_batches,
            batched_gets=self.batch_counters.batched_gets,
            device_write_ops=counters.host_write_ops,
            user_bytes_written=self.user_bytes_written,
            user_bytes_read=self.user_bytes_read,
            aof_bytes_appended=self.aofs.bytes_appended,
            disk_used_bytes=self.aofs.disk_used_bytes,
            memtable_items=len(self.memtable),
            memtable_bytes=self.memtable.approximate_bytes,
            segment_count=self.aofs.segment_count,
            gc_runs=self.gc_runs,
            gc_bytes_reappended=self.gc_bytes_reappended,
            gc_corrupt_victims=self.gc_corrupt_victims,
            device_host_bytes_written=counters.host_bytes_written,
            device_total_bytes_written=counters.total_bytes_written,
            device_total_bytes_read=counters.total_bytes_read,
            hardware_write_amplification=counters.hardware_write_amplification,
            now=self.device.now,
        )

    def flush(self) -> None:
        """Flush buffered partial pages to flash."""
        self.aofs.flush()

    def restart(self) -> "QinDB":
        """Power-fail this engine and return the one recovery rebuilds
        from what reached flash: the newest checkpoint while it is still
        valid, else the paper's full AOF scan."""
        from repro.qindb.checkpoint import crash, recover

        return recover(
            crash(self),
            config=self.config,
            checkpoint=self.latest_checkpoint,
            checkpoint_valid=self.checkpoint_valid,
        )
