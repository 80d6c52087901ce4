"""A Mint cluster: groups of storage nodes behind ``H(k)``.

One cluster lives in each data center.  Keys hash to groups; groups place
replicas.  The cluster also owns slice ingestion (index entries arriving
from Bifrost become versioned puts, with the index kind folded into the
key so URLs and terms never collide).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, Optional

from repro.bifrost.encoding import DecodedSlice, SliceDecodes, WireDecoder
from repro.bifrost.slices import Slice
from repro.errors import (
    ClusterError,
    ConfigError,
    KeyNotFoundError,
    ReplicationError,
    WireBaseUnavailableError,
)
from repro.indexing.types import IndexKind
from repro.mint.group import NodeGroup
from repro.mint.hashing import stable_hash
from repro.mint.integrity import IntegrityIndex
from repro.mint.node import Engine, StorageNode
from repro.obs.tracer import UNTRACED
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.records import Bodies

_KIND_PREFIX = {
    IndexKind.FORWARD: b"F:",
    IndexKind.INVERTED: b"I:",
    IndexKind.SUMMARY: b"S:",
}


def storage_key(kind: IndexKind, key: bytes) -> bytes:
    """Fold the index kind into the key (one namespace per family)."""
    return _KIND_PREFIX[kind] + key


#: Per-node metric views: ``family -> {metric name: attribute path}``,
#: registered as ``<family>.<node path>.<metric name>``.  A path is
#: walked from the :class:`StorageNode` each time the metric is read,
#: so a view follows ``node.engine`` across the engine swap a crash
#: recovery performs, and a path the engine lacks (the LSM baseline has
#: no AOF or read cache) reads 0.0 instead of failing
#: the whole snapshot.  ``?.`` follows an attribute that may be None (no
#: read cache configured), reading 0.0 without the cost of a raise; a
#: trailing ``()`` calls what the path ends at.
NODE_METRIC_VIEWS: Dict[str, Dict[str, str]] = {
    "mint": {
        "puts": "puts",
        "gets": "gets",
        "skipped_gets": "skipped_gets",
        "missing_gets": "missing_gets",
        "corrupt_gets": "corrupt_gets",
        "deletes": "deletes",
        "recoveries": "recoveries",
        "up": "is_up",
    },
    "qindb": {
        "user_bytes_written": "engine.user_bytes_written",
        "user_bytes_read": "engine.user_bytes_read",
        "aof_bytes_appended": "engine.aofs.bytes_appended",
        "disk_used_bytes": "engine.aofs.disk_used_bytes",
        "gc_runs": "engine.gc_runs",
        "gc_bytes_reappended": "engine.gc_bytes_reappended",
        "gc_corrupt_victims": "engine.gc_corrupt_victims",
        "memtable_items": "engine.memtable.__len__()",
        # private copies of a run shared with other replicas, by the
        # verb that forced each (repro.qindb.memtable.RunCopies)
        "memtable_copies.put": "engine.memtable.copies.put",
        "memtable_copies.delete": "engine.memtable.copies.delete",
        "memtable_copies.restore": "engine.memtable.copies.restore",
        "memtable_copies.retire": "engine.memtable.copies.retire",
        "memtable_copies.relocate": "engine.memtable.copies.relocate",
        "memtable_copies.drop": "engine.memtable.copies.drop",
        # segment walks (GC victims, recovery) verified here, and those
        # taken from an identical replica's (repro.qindb.aof.ScanCounts)
        "frame_scans.verified": "engine.aofs.scans.verified",
        "frame_scans.shared": "engine.aofs.scans.shared",
        "read_cache.hits": "engine.read_cache?.counters.hits",
        "read_cache.misses": "engine.read_cache?.counters.misses",
        "read_cache.evictions": "engine.read_cache?.counters.evictions",
        "read_cache.invalidated": "engine.read_cache?.counters.invalidated",
        "batch.batches": "engine.batch_counters.batches",
        "batch.batched_puts": "engine.batch_counters.batched_puts",
    },
    "ssd": {
        "host_pages_written": "engine.device.counters.host_pages_written",
        "host_pages_read": "engine.device.counters.host_pages_read",
        "gc_pages_written": "engine.device.counters.gc_pages_written",
        "blocks_erased": "engine.device.counters.blocks_erased",
        "host_write_ops": "engine.device.counters.host_write_ops",
        "gc_write_ops": "engine.device.counters.gc_write_ops",
        "busy_time_s": "engine.device.counters.busy_time_s",
        "device_now_s": "engine.device.now",
    },
}


@cache
def _parse_view(path: str) -> tuple:
    """``(head getter, tail getter past a ``?.`` or None, called)``;
    parsed once per path, not once per node."""
    called = path.endswith("()")
    head, _, tail = path.removesuffix("()").partition("?.")
    return attrgetter(head), attrgetter(tail) if tail else None, called


def _node_view(node: StorageNode, path: str) -> Callable[[], float]:
    """A live reader of one :data:`NODE_METRIC_VIEWS` path on ``node``."""
    read_head, read_tail, called = _parse_view(path)

    def value() -> float:
        try:
            found = read_head(node)
            if read_tail is not None:
                if found is None:
                    return 0.0
                found = read_tail(found)
        except AttributeError:
            return 0.0
        return found() if called else found

    return value


@dataclass(frozen=True)
class MintConfig:
    """Shape of one data center's cluster."""

    group_count: int = 2
    nodes_per_group: int = 3
    replica_count: int = 3
    node_capacity_bytes: int = 256 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.group_count < 1:
            raise ConfigError("group_count must be >= 1")
        if self.nodes_per_group < self.replica_count:
            raise ConfigError("nodes_per_group must be >= replica_count")


class MintCluster:
    """Hash-partitioned, replicated storage for one data center."""

    #: slot-directory fan-out: ``H(k)`` maps into ``group_count *
    #: SLOTS_PER_GROUP`` virtual slots, and a slot directory maps slots
    #: to groups.  The initial directory assigns slot ``s`` to group
    #: ``s % group_count`` — *exactly* ``H(k) % group_count``, so a
    #: static cluster places identically to the pre-elastic code — but
    #: group splits/merges can now remap individual slots, moving only
    #: 1/slot_count of the keyspace per slot instead of rehashing the
    #: world.
    SLOTS_PER_GROUP = 16

    def __init__(
        self,
        name: str,
        config: MintConfig | None = None,
        engine_factory: Optional[Callable[[str], Engine]] = None,
        wire_decodes: Optional[SliceDecodes] = None,
    ) -> None:
        self.name = name
        self.config = config or MintConfig()
        factory = engine_factory or self._default_engine
        #: kept for elastic membership: late-joining nodes and groups
        #: build their engines from the same factory as construction
        self._engine_factory = factory
        self.groups: List[NodeGroup] = []
        for group_index in range(self.config.group_count):
            nodes = [
                StorageNode(
                    f"{name}/g{group_index}/n{node_index}",
                    factory(f"{name}-g{group_index}-n{node_index}"),
                )
                for node_index in range(self.config.nodes_per_group)
            ]
            self.groups.append(
                NodeGroup(group_index, nodes, self.config.replica_count)
            )
        self.slot_count = self.config.group_count * self.SLOTS_PER_GROUP
        self._slot_map: List[NodeGroup] = [
            self.groups[slot % self.config.group_count]
            for slot in range(self.slot_count)
        ]
        #: slot -> (old owner, new owner) for slots mid-migration: the
        #: old group stays authoritative (reads, version bookkeeping)
        #: while writes dual-apply to both, until the migrator calls
        #: :meth:`complete_slot_move`
        self._moving_slots: Dict[int, tuple] = {}
        #: per slot, the ids of the groups its writes go to — the owner,
        #: or the old and new owners mid-move: everything a write
        #: batch's cut by group depends on, so data centers whose
        #: directories agree share one cut (:meth:`put_batch`)
        self._directory = self._write_directory()
        #: monotonic id source for groups added after construction
        self._next_group_id = self.config.group_count
        #: per-group monotonic node-name indices for spawned nodes
        self._next_node_index: Dict[int, int] = {
            group.group_id: self.config.nodes_per_group
            for group in self.groups
        }
        #: metrics registry once bound, so elastic membership changes
        #: can (un)register node/group readers at join/leave time
        self._registry = None
        #: per-version keys ingested, for the version-deletion thread
        self.version_keys: Dict[int, List[bytes]] = {}
        #: versions already dropped; a straggler slice of one of these
        #: (still in flight when the version retired) must be discarded,
        #: never ingested — the pipelined engine's version-order guard
        self._retired_versions: set = set()
        #: slices discarded by the retirement guard
        self.stale_slices_dropped = 0
        #: receiver side of the wire codec (:mod:`repro.bifrost.encoding`);
        #: ``wire_decodes`` shares each slice's decode across the fleet
        self.wire_decoder = WireDecoder(wire_decodes)
        #: wire-encoded slices waiting for a delta base still in flight
        self._parked_slices: List[Slice] = []
        self.slices_parked = 0
        self.slices_unparked = 0
        #: parked slices discarded because their version retired first
        self.parked_dropped = 0
        #: tiered integrity summaries of everything ingested (audit tier)
        self.integrity = IntegrityIndex()
        #: trace track (``obs.TraceTrack``) for ingest spans; untraced
        #: until bound
        self.trace = UNTRACED
        #: key -> group memo over the slot directory, filled by reads
        #: (writes cut their batch by group without it).  Node faults
        #: flip ``is_up`` inside a group and never move keys, so entries
        #: survive them; a slot *cutover* (:meth:`complete_slot_move`)
        #: rewrites the directory and flushes the memo.
        self._group_cache: Dict[bytes, NodeGroup] = {}

    def _default_engine(self, node_name: str) -> Engine:
        return QinDB.with_capacity(
            self.config.node_capacity_bytes,
            config=QinDBConfig(segment_bytes=4 * 1024 * 1024),
        )

    # ------------------------------------------------------------------
    @property
    def all_nodes(self) -> List[StorageNode]:
        return [node for group in self.groups for node in group.nodes]

    def group_for(self, key: bytes) -> NodeGroup:
        """The paper's ``H(k)`` -> group mapping (memoized per key).

        Resolves through the slot directory; while a slot is moving the
        *old* owner stays authoritative, so version bookkeeping, audits,
        and reads all agree until the migrator cuts the slot over.
        """
        group = self._group_cache.get(key)
        if group is None:
            group = self._slot_map[stable_hash(key) % self.slot_count]
            self._group_cache[key] = group
        return group

    def slot_for(self, key: bytes) -> int:
        """The key's virtual slot in the directory."""
        return stable_hash(key) % self.slot_count

    def group_by_id(self, group_id: int) -> NodeGroup:
        for group in self.groups:
            if group.group_id == group_id:
                return group
        raise ClusterError(f"no group {group_id} in cluster {self.name!r}")

    def slots_of(self, group: NodeGroup) -> List[int]:
        """Slots the directory currently assigns to ``group``."""
        return [
            slot
            for slot, owner in enumerate(self._slot_map)
            if owner is group
        ]

    # ------------------------------------------------------------------
    # Elastic membership: node join/leave and group split/merge.  These
    # only mutate topology + metric registrations; actual data movement
    # is the migrator's job (``repro.elastic``).
    # ------------------------------------------------------------------
    def spawn_node(self, group: NodeGroup) -> StorageNode:
        """Build a node from the cluster's engine factory and join it.

        The name continues the group's ``n<i>`` sequence (indices are
        never reused, so metric paths stay unambiguous across the run).
        """
        index = self._next_node_index.get(group.group_id, 0)
        self._next_node_index[group.group_id] = index + 1
        node = StorageNode(
            f"{self.name}/g{group.group_id}/n{index}",
            self._engine_factory(
                f"{self.name}-g{group.group_id}-n{index}"
            ),
        )
        group.add_node(node)
        if self._registry is not None:
            self._register_node_metrics(self._registry, node)
        return node

    def decommission_node(self, group: NodeGroup, name: str) -> StorageNode:
        """Remove a (drained) node and retire its metric readers."""
        node = group.remove_node(name)
        if self._registry is not None:
            path = node.name.replace("/", ".")
            for family in NODE_METRIC_VIEWS:
                self._registry.unregister_prefix(f"{family}.{path}")
        return node

    def add_group(self, node_count: Optional[int] = None) -> NodeGroup:
        """Stand up a new, empty group (no slots assigned yet).

        The planner then schedules slot moves toward it; until a slot
        cuts over, the group serves nothing.
        """
        group_id = self._next_group_id
        self._next_group_id += 1
        count = node_count or self.config.nodes_per_group
        if count < self.config.replica_count:
            raise ConfigError(
                f"new group needs >= {self.config.replica_count} nodes"
            )
        nodes = [
            StorageNode(
                f"{self.name}/g{group_id}/n{node_index}",
                self._engine_factory(
                    f"{self.name}-g{group_id}-n{node_index}"
                ),
            )
            for node_index in range(count)
        ]
        group = NodeGroup(group_id, nodes, self.config.replica_count)
        self.groups.append(group)
        self._next_node_index[group_id] = count
        if self._registry is not None:
            self._register_group_metrics(self._registry, group)
            for node in nodes:
                self._register_node_metrics(self._registry, node)
        return group

    def remove_group(self, group: NodeGroup) -> NodeGroup:
        """Retire a group that no longer owns slots (post-merge)."""
        if self.slots_of(group):
            raise ClusterError(
                f"group {group.group_id} still owns slots; move them first"
            )
        if any(old is group or new is group
               for old, new in self._moving_slots.values()):
            raise ClusterError(
                f"group {group.group_id} is part of an in-flight slot move"
            )
        if len(self.groups) <= 1:
            raise ClusterError("cannot remove the last group")
        self.groups.remove(group)
        if self._registry is not None:
            self._registry.unregister_prefix(
                f"mint.{self.name}.g{group.group_id}.group"
            )
            self._registry.unregister_prefix(
                f"elastic.{self.name}.g{group.group_id}"
            )
            for node in group.nodes:
                path = node.name.replace("/", ".")
                for family in NODE_METRIC_VIEWS:
                    self._registry.unregister_prefix(f"{family}.{path}")
        return group

    def begin_slot_move(self, slot: int, target: NodeGroup) -> None:
        """Start migrating a slot: old owner authoritative, writes
        dual-apply to old + new until :meth:`complete_slot_move`."""
        if not 0 <= slot < self.slot_count:
            raise ClusterError(f"slot {slot} out of range")
        if slot in self._moving_slots:
            raise ClusterError(f"slot {slot} is already moving")
        owner = self._slot_map[slot]
        if owner is target:
            raise ClusterError(f"slot {slot} already owned by target group")
        if target not in self.groups:
            raise ClusterError("target group is not part of this cluster")
        self._moving_slots[slot] = (owner, target)
        self._directory = self._write_directory()

    def complete_slot_move(self, slot: int) -> None:
        """Cut a slot over to its new owner and flush the group memo."""
        try:
            _owner, target = self._moving_slots.pop(slot)
        except KeyError:
            raise ClusterError(f"slot {slot} is not moving") from None
        self._slot_map[slot] = target
        self._directory = self._write_directory()
        self._group_cache.clear()

    def _write_directory(self) -> tuple:
        """Per slot, the group ids its writes go to (``_directory``)."""
        moving = self._moving_slots
        return tuple(
            (owner.group_id,) if slot not in moving
            else tuple(group.group_id for group in moving[slot])
            for slot, owner in enumerate(self._slot_map)
        )

    # ------------------------------------------------------------------
    def put(self, key: bytes, version: int, value: Optional[bytes]) -> int:
        """A :meth:`put_batch` of one."""
        return self.put_batch([(key, version, value)])

    def put_batch(self, items: List[tuple]) -> int:
        """Write ``(key, version, value)`` triples, partitioned by group.

        Each group receives its keys as one batch (and fans them out as
        one engine batch per node), so slice-granular ingest costs a
        handful of batched passes instead of a put per key per replica.
        The record bodies are built at most once on the way down — here,
        unless the caller's batch already carries them — and the batch
        is cut by group once per slot directory (:meth:`_cut`, kept on
        the batch by :meth:`~repro.qindb.records.Bodies.shared`): every
        data center whose directory agrees hands its groups the same
        sub-batches, and their replicas the same heads, without hashing
        a key.  While a slot is moving, items in it dual-apply to both
        owners, so the new group is complete at cutover.
        Returns the total replica writes performed.
        """
        items = Bodies.of(items)
        by_group = items.shared(self._directory, self._cut)
        total = 0
        for group in self.groups:
            batch = by_group.get(group.group_id)
            if batch:
                with self.trace.span(
                    "ingest_group", group=group.group_id, keys=len(batch)
                ):
                    total += group.put_batch(batch)
        return total

    def _cut(self, items: Bodies) -> Dict[int, Bodies]:
        """``items`` by the groups the directory sends each key to:
        group id -> sub-batch, in input order; one ``H(k)`` per key, and
        none when every slot writes to the same groups."""
        directory = self._directory
        if len(set(directory)) == 1:
            return dict.fromkeys(directory[0], items)
        slot_count = self.slot_count
        by_group: Dict[int, List[int]] = {}
        for index, item in enumerate(items):
            for group_id in directory[stable_hash(item[0]) % slot_count]:
                indices = by_group.get(group_id)
                if indices is None:
                    by_group[group_id] = [index]
                else:
                    indices.append(index)
        return {
            group_id: items.take(indices)
            for group_id, indices in by_group.items()
        }

    def get(self, key: bytes, version: int) -> bytes:
        """A :meth:`multi_get` of one."""
        return self.multi_get([(key, version)])[0]

    def multi_get(self, items: List[tuple], missing: str = "raise") -> List:
        """Read ``(key, version)`` pairs, partitioned by group; returns
        the values in input order.

        The gather half of the serving fast path: items bucket by the
        memoized ``H(k)`` group mapping (exactly as :meth:`put_batch`
        partitions writes), each group serves its share as one
        :meth:`NodeGroup.multi_get` — batch-aware replica spreading, one
        engine batch per node — and the per-group results scatter back
        into request order.  ``missing`` passes through: ``"raise"``
        raises :class:`~repro.errors.KeyNotFoundError` for a key no live
        replica holds, ``"none"`` returns per-slot sentinels.  An item
        whose slot is mid-move reads on its own, old owner then new
        (:meth:`_get_moving`).
        """
        by_group: Dict[int, List[int]] = {}
        results: List = [None] * len(items)
        moving = self._moving_slots
        for index, item in enumerate(items):
            move = moving.get(self.slot_for(item[0])) if moving else None
            if move is not None:
                results[index] = self._get_moving(move, item, missing)
                continue
            by_group.setdefault(
                self.group_for(item[0]).group_id, []
            ).append(index)
        for group in self.groups:
            indices = by_group.get(group.group_id)
            if not indices:
                continue
            batch = [items[index] for index in indices]
            with self.trace.span(
                "multi_get_group", group=group.group_id, keys=len(batch)
            ):
                values = group.multi_get(batch, missing=missing)
            for index, value in zip(indices, values):
                results[index] = value
        return results

    @staticmethod
    def _get_moving(move: tuple, item: tuple, missing: str):
        """Read one item of a slot mid-move: old owner, then new.

        The old owner holds every acknowledged key until cutover (writes
        dual-apply), so the new-owner fallback only matters if the old
        group is mid-fault — availability, not correctness.
        """
        old, new = move
        try:
            value = old.multi_get([item], missing)[0]
        except (KeyNotFoundError, ReplicationError):
            value = None
        if value is None:
            value = new.multi_get([item], missing)[0]
        return value

    # ------------------------------------------------------------------
    def ingest_slice(self, item: Slice) -> int:
        """Store every entry of an arrived slice; returns entries written.

        A slice ingests slice-in/batch-out: entries group by node group
        and land as one engine batch per node (:meth:`put_batch`) instead
        of one put per key per replica.  Value-less (deduplicated)
        entries are stored value-less — QinDB's GET traceback resolves
        them against the previous version.

        A slice of an already-retired version (its keys were dropped
        while this copy was still in flight) is discarded whole: writing
        it would resurrect keys no version map references, and under
        concurrent multi-version delivery could clobber GC accounting a
        newer version relies on.

        A *wire-encoded* slice (``item.wire`` set) decodes here first.
        A delta whose base has not landed yet (pipelined months let
        version N+1 slices overtake version N's) parks the whole slice;
        every later successful ingest retries the parked set.  The
        slice's entry count is reported at arrival either way, so the
        cycle report's ``keys_delivered`` matches the unencoded run.
        """
        if item.version in self._retired_versions:
            self.stale_slices_dropped += 1
            return 0
        if item.wire is not None:
            return self._ingest_wire(item)
        return self._store_entries(item, self.wire_decoder.decodes.plain(item))

    def _ingest_wire(self, item: Slice) -> int:
        """Decode a wire-encoded slice, parking it if a base is missing."""
        try:
            with self.trace.span(
                "wire_decode", slice=item.slice_id, entries=len(item.entries)
            ):
                entries = self.wire_decoder.decode_slice(item)
        except WireBaseUnavailableError:
            self._parked_slices.append(item)
            self.slices_parked += 1
            return len(item.entries)
        written = self._store_entries(item, entries)
        if self._parked_slices:
            self._drain_parked()
        return written

    def _drain_parked(self) -> None:
        """Retry parked slices until no retry makes progress.

        A successfully decoded slice commits new base values, which can
        unblock other parked slices — so the drain loops until a full
        pass parks everything again.  Drained slices were already
        counted at arrival, so their entry counts are *not* re-reported.
        (A retired version's parked slices left at :meth:`drop_version`.)
        """
        progress = True
        while progress and self._parked_slices:
            progress = False
            for parked in list(self._parked_slices):
                try:
                    entries = self.wire_decoder.decode_slice(parked)
                except WireBaseUnavailableError:
                    continue
                self._parked_slices.remove(parked)
                self.slices_unparked += 1
                self._store_entries(parked, entries)
                progress = True

    def _store_entries(self, item: Slice, entries: DecodedSlice) -> int:
        """The raw batch path: store logical entries, track the version.

        Shared by plain ingest (the slice's own entries) and wire ingest
        (the decoder's output) — both produce byte-identical stores.
        The record bodies and their checksums are built once for the
        fleet, by the first data center to store the slice, and kept
        with the fleet's shared take of it, beside the entries' build
        signatures: every replica in every data center frames the same
        bodies under the same storage keys, and each integrity index
        keeps the checksums as its leaves and the batch's columns and
        the signatures as its records.
        """
        batch = entries.batch
        if batch is None:
            batch = entries.batch = Bodies(
                [
                    (storage_key(entry.kind, entry.key), item.version, entry.value)
                    for entry in entries
                ]
            )
            entries.signatures = [entry.signature for entry in entries]
        self.put_batch(batch)
        self.version_keys.setdefault(item.version, []).extend(
            map(itemgetter(0), batch)
        )
        self.integrity.absorb(item, batch, entries.signatures)
        return len(batch)

    def drop_version(self, version: int) -> int:
        """Evict ``version`` (oldest-version removal when more than four
        versions persist); returns the keys it had ingested.

        Every group retires the version on every member node, one engine
        call per node (:meth:`NodeGroup.retire_version`): each engine
        deletes the live records of the version it holds, so eviction
        never depends on where the current placement puts a key — a copy
        a slot move or rebalance left behind goes too.  The version is
        marked retired first, so any of its slices still in flight are
        dropped on arrival instead of re-ingesting keys this eviction
        just removed.
        """
        self._retired_versions.add(version)
        keys = self.version_keys.pop(version, [])
        for group in self.groups:
            group.retire_version(version)
        kept = [item for item in self._parked_slices if item.version != version]
        self.parked_dropped += len(self._parked_slices) - len(kept)
        self._parked_slices = kept
        self.wire_decoder.release_version(version)
        self.integrity.drop_version(version)
        return len(keys)

    def under_replicated(self) -> List[tuple]:
        """Live ``(key, version, live_copies)`` triples short of target.

        Walks every version the cluster still references (ascending, so
        dedup base versions come before the versions that point at them)
        and counts, per key, the replicas that are up *and* actually hold
        the record — a node that lost an unflushed tail in a crash is a
        missing copy even though it answers requests.  An empty result is
        the cluster's "fully re-protected" signal after fault recovery.
        """
        shortfalls: List[tuple] = []
        for version in sorted(self.version_keys):
            seen = set()
            for key in self.version_keys[version]:
                if key in seen:
                    continue
                seen.add(key)
                group = self.group_for(key)
                live = sum(
                    1
                    for node in group.replicas_for(key)
                    if node.is_up and node.engine.exists(key, version)
                )
                if live < group.replica_count:
                    shortfalls.append((key, version, live))
        return shortfalls

    def over_replicated(self) -> List[tuple]:
        """Live ``(key, version, live_copies)`` triples held by more
        nodes of the cluster than the replica count.

        The mirror of :meth:`under_replicated`, over every node rather
        than the key's placement: a stale copy a rebalance failed to
        withdraw is live on a node placement no longer names.
        """
        nodes = self.all_nodes
        surplus: List[tuple] = []
        for version in sorted(self.version_keys):
            for key in dict.fromkeys(self.version_keys[version]):
                live = sum(
                    1
                    for node in nodes
                    if node.is_up and node.engine.exists(key, version)
                )
                if live > self.config.replica_count:
                    surplus.append((key, version, live))
        return surplus

    def query(self, kind: IndexKind, key: bytes, version: int) -> bytes:
        """Front-end read of one index entry."""
        return self.get(storage_key(kind, key), version)

    # ------------------------------------------------------------------
    def bind_trace(self, track) -> None:
        """Attach a trace track; ingestion opens per-group spans on it."""
        self.trace = track

    def register_metrics(self, registry) -> None:
        """Register per-node counters across the storage stack.

        Naming folds the node path into dotted segments
        (``north-dc1/g0/n0`` -> ``north-dc1.g0.n0``) under three
        subsystem roots: ``mint.<node>.*`` (request tallies),
        ``qindb.<node>.*`` (engine counters, incl. ``read_cache.*`` and
        ``batch.*``), and ``ssd.<node>.*`` (firmware counters) — the
        :data:`NODE_METRIC_VIEWS` table.

        The registry is retained: elastic membership changes register
        (and unregister) their node/group readers as they happen, so a
        node that joins mid-run shows up in the telemetry plane without
        a re-registration sweep.
        """
        self._registry = registry

        # Cluster-level wire-codec counters: what the decoder did, and
        # how often pipelined delivery parked a slice on a missing base.
        decoder_stats = self.wire_decoder.stats
        registry.register_many(
            f"mint.{self.name}.wire",
            {
                "slices_decoded": lambda: decoder_stats.slices_decoded,
                "entries_decoded": lambda: decoder_stats.entries_decoded,
                "deltas_applied": lambda: decoder_stats.deltas_applied,
                "full_values": lambda: decoder_stats.full_values,
                "bases_missing": lambda: decoder_stats.bases_missing,
                "decode_cpu_s": lambda: decoder_stats.decode_cpu_s,
                "slices_parked": lambda: self.slices_parked,
                "slices_unparked": lambda: self.slices_unparked,
                "parked_dropped": lambda: self.parked_dropped,
                "parked_now": lambda: len(self._parked_slices),
            },
        )
        self.integrity.register_metrics(registry, f"integrity.{self.name}")

        # Cluster-level elastic gauges: topology shape and migration
        # pressure, one glance for "is a rebalance running".
        registry.register_many(
            f"elastic.{self.name}",
            {
                "groups": lambda: len(self.groups),
                "nodes": lambda: len(self.all_nodes),
                "slots_moving": lambda: len(self._moving_slots),
                "moving_keys": lambda: sum(
                    group.moving_keys for group in self.groups
                ),
            },
        )

        for group in self.groups:
            self._register_group_metrics(registry, group)

        for node in self.all_nodes:
            self._register_node_metrics(registry, node)

    def _register_group_metrics(self, registry, group: NodeGroup) -> None:
        # Group-level read-side counters, mirroring how the write path
        # exports per-node tallies: ``mint.<dc>.g<id>.group.*`` carries
        # the serving reads (single + batched), failovers, and sheds.
        registry.register_many(
            f"mint.{self.name}.g{group.group_id}.group",
            {
                "gets": lambda group=group: group.gets,
                "multi_gets": lambda group=group: group.multi_gets,
                "batched_gets": lambda group=group: group.batched_gets,
                "failover_gets": lambda group=group: group.failover_gets,
                "shed_gets": lambda group=group: group.shed_gets,
                # Health-plane gauges: live-replica fraction plus the
                # durability debt (parked writes, unreplayed repair
                # backlog) a bare healthy count hides.
                "healthy": lambda group=group: group.healthy_count,
                "nodes": lambda group=group: len(group.nodes),
                "parked_writes": lambda group=group: len(
                    group.pending_writes
                ),
                "repair_backlog": lambda group=group: sum(
                    len(ops) for ops in group.repair_backlog.values()
                ),
            },
        )
        # Per-group elastic gauges: membership, drain state, and the
        # migration backlog the health plane watches during rebalances.
        registry.register_many(
            f"elastic.{self.name}.g{group.group_id}",
            {
                "members": lambda group=group: len(group.nodes),
                "draining": lambda group=group: len(group.draining),
                "moving_keys": lambda group=group: group.moving_keys,
                "in_transition": lambda group=group: (
                    1.0 if group.in_transition else 0.0
                ),
                "slots": lambda group=group: len(self.slots_of(group)),
            },
        )

    def _register_node_metrics(self, registry, node: StorageNode) -> None:
        node_path = node.name.replace("/", ".")
        for family, views in NODE_METRIC_VIEWS.items():
            registry.register_many(
                f"{family}.{node_path}",
                {
                    name: _node_view(node, path)
                    for name, path in views.items()
                },
            )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Aggregate engine counters across all nodes.

        All values are scalar totals except the node-name → count maps:
        ``gets_per_node`` (the witness for whether replica reads spread
        across a group or pile onto one node) and ``skipped_gets_per_node``
        / ``corrupt_gets_per_node`` (who was down, or held a bad frame).
        """
        totals: Dict[str, object] = {
            "nodes": 0,
            "healthy_nodes": 0,
            "puts": 0,
            "gets": 0,
            "deletes": 0,
            "user_bytes_written": 0,
            "disk_used_bytes": 0,
            "busy_time_s": 0.0,
            "put_batches": 0,
            "batched_puts": 0,
            "get_batches": 0,
            "batched_gets": 0,
            "multi_gets": 0,
            "failover_gets": 0,
            "shed_gets": 0,
            "missing_gets": 0,
            "device_write_ops": 0,
            "stale_slices_dropped": self.stale_slices_dropped,
            "wire_slices_decoded": self.wire_decoder.stats.slices_decoded,
            "wire_deltas_applied": self.wire_decoder.stats.deltas_applied,
            "wire_slices_parked": self.slices_parked,
            "wire_parked_dropped": self.parked_dropped,
        }
        for group in self.groups:
            totals["multi_gets"] += group.multi_gets
            totals["failover_gets"] += group.failover_gets
            totals["shed_gets"] += group.shed_gets
        gets_per_node: Dict[str, int] = {}
        skipped_gets_per_node: Dict[str, int] = {}
        corrupt_gets_per_node: Dict[str, int] = {}
        for node in self.all_nodes:
            totals["nodes"] += 1
            totals["healthy_nodes"] += 1 if node.is_up else 0
            totals["puts"] += node.puts
            totals["gets"] += node.gets
            totals["deletes"] += node.deletes
            totals["missing_gets"] += node.missing_gets
            gets_per_node[node.name] = node.gets
            skipped_gets_per_node[node.name] = node.skipped_gets
            corrupt_gets_per_node[node.name] = node.corrupt_gets
            stats = node.engine.stats()
            totals["user_bytes_written"] += stats.user_bytes_written
            totals["disk_used_bytes"] += stats.disk_used_bytes
            totals["busy_time_s"] += node.engine.device.counters.busy_time_s
            totals["put_batches"] += stats.put_batches
            totals["batched_puts"] += stats.batched_puts
            totals["get_batches"] += stats.get_batches
            totals["batched_gets"] += stats.batched_gets
            totals["device_write_ops"] += node.engine.device.counters.host_write_ops
        totals["gets_per_node"] = gets_per_node
        totals["skipped_gets_per_node"] = skipped_gets_per_node
        totals["corrupt_gets_per_node"] = corrupt_gets_per_node
        return totals
