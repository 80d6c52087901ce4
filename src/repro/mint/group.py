"""A group of storage nodes: the unit ``H(k)`` maps to.

Replica placement within the group uses rendezvous hashing over the
member names, so adding or removing a node reshuffles only the keys whose
top-ranked nodes change — and never moves data *between* groups, which is
the paper's scalability argument for the group indirection.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import (
    ClusterError,
    CorruptionError,
    KeyNotFoundError,
    NodeDownError,
    ReplicationError,
)
from repro.mint.hashing import rendezvous_ranking, weighted_rendezvous_ranking
from repro.mint.node import StorageNode
from repro.qindb.records import Bodies


class NodeGroup:
    """Named set of nodes with replica placement and failover reads."""

    def __init__(
        self,
        group_id: int,
        nodes: List[StorageNode],
        replica_count: int = 3,
    ) -> None:
        if replica_count < 1:
            raise ClusterError(f"replica_count must be >= 1, got {replica_count}")
        if len(nodes) < replica_count:
            raise ClusterError(
                f"group {group_id} has {len(nodes)} nodes but needs "
                f"{replica_count} replicas"
            )
        self.group_id = group_id
        self.replica_count = replica_count
        self._nodes: Dict[str, StorageNode] = {}
        #: node name -> ordered ops the node missed while down, as
        #: ("put"|"delete", key, version), or ("retire", None, version)
        #: for a whole evicted version.  Values are *not* kept — the
        #: repairer (``repro.faults.repair``) copies them from a healthy
        #: peer when the node rejoins, then clears the entry.
        self.repair_backlog: Dict[str, List] = {}
        #: fault-recovery mode (set by ``repro.faults``): a write whose
        #: *every* replica is down parks in ``pending_writes`` — the
        #: relay group holding the payload until the outage heals —
        #: instead of raising :class:`ReplicationError`
        self.park_when_unavailable = False
        #: parked ``(key, version, value)`` writes awaiting a live replica
        self.pending_writes: List = []
        #: read-side tallies, registered as ``mint.<dc>.g<id>.group.*``:
        #: :meth:`get` calls, multi_get calls/keys through this group,
        #: reads answered by a non-preferred replica (``failover_gets``),
        #: and requests the serving tier shed at admission (``shed_gets``,
        #: incremented by the frontend's admission controller).
        self.gets = 0
        self.multi_gets = 0
        self.batched_gets = 0
        self.failover_gets = 0
        self.shed_gets = 0
        #: key -> replica nodes, memoizing the rendezvous ranking: a
        #: key is ranked when first read (or, in a group that does not
        #: replicate every key, written), never by a full group's
        #: write.  The cache is *versioned*: every membership mutation
        #: (add/remove/drain) bumps ``membership_version``, and
        #: :meth:`replicas_for` discards the map when its recorded
        #: version falls behind — so no mutation path can forget to
        #: invalidate.  Node crashes and
        #: restarts only flip ``is_up`` and never move placement, so the
        #: cache survives them — exactly the paper's stability argument.
        self._placement_cache: Dict[bytes, List[StorageNode]] = {}
        #: ranked replica names -> the one list of those nodes every key
        #: ranked that way shares; dropped with ``_placement_cache``
        self._placements: Dict[tuple, List[StorageNode]] = {}
        #: monotonic membership epoch; compared against
        #: ``_placement_version`` to invalidate memoized placements
        self.membership_version = 0
        self._placement_version = 0
        #: names of members being decommissioned: they keep serving
        #: reads as failover of last resort but attract no new placement
        self._draining: set = set()
        #: elastic-transition snapshot (``None`` outside a rebalance):
        #: the member names *before* the membership change, so writes can
        #: dual-apply to old+new placement and reads can prefer the old
        #: (guaranteed-complete) copy until the migrator cuts over
        self._old_member_names: Optional[List[str]] = None
        self._old_nodes: Dict[str, StorageNode] = {}
        self._transition_cache: Dict[bytes, List[StorageNode]] = {}
        #: keys this group still owes a move for (set by the migrator;
        #: exported as the ``elastic.<dc>.g<id>.moving_keys`` gauge)
        self.moving_keys = 0
        self._member_names: List[str] = []
        self._members: List[StorageNode] = []
        for node in nodes:
            self.add_node(node)

    def note_missed(
        self, node_name: str, op: str, key: Optional[bytes], version: int
    ) -> None:
        """Record an op a down node missed, for later backlog repair."""
        self.repair_backlog.setdefault(node_name, []).append(
            (op, key, version)
        )

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[StorageNode]:
        """The members in name order: one list per membership, shared
        by every caller (the read path asks once per flush), so never
        mutate it."""
        return self._members

    @property
    def healthy_count(self) -> int:
        return sum(1 for node in self._nodes.values() if node.is_up)

    def node(self, name: str) -> StorageNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise ClusterError(f"no node {name!r} in group {self.group_id}") from None

    def add_node(self, node: StorageNode) -> None:
        """Join a node; existing keys stay where they are."""
        if node.name in self._nodes:
            raise ClusterError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._set_members()

    def remove_node(self, name: str) -> StorageNode:
        """Leave the group (e.g. decommissioning)."""
        if len(self._nodes) - 1 < self.replica_count:
            raise ClusterError(
                f"removing {name!r} would leave group {self.group_id} "
                f"below {self.replica_count} replicas"
            )
        node = self._nodes.pop(name)
        self._set_members()
        self._draining.discard(name)
        return node

    def _set_members(self) -> None:
        """A join or a leave: the member names and list, rebuilt once."""
        self._member_names = sorted(self._nodes)
        self._members = list(map(self._nodes.__getitem__, self._member_names))
        self.membership_version += 1

    def mark_draining(self, name: str, draining: bool = True) -> None:
        """Flag a member as leaving: no new placement, failover-only reads.

        A draining node stays a full member (it still serves the keys it
        already holds) but ranks last in :meth:`replicas_for` — the
        weighted-rendezvous weight-0 state — so every key it owned gains
        a replacement replica for the migrator to populate.
        """
        self.node(name)  # raises if unknown
        if draining:
            live = len(self._nodes) - len(self._draining | {name})
            if live < self.replica_count:
                raise ClusterError(
                    f"draining {name!r} would leave group {self.group_id} "
                    f"below {self.replica_count} live replicas"
                )
            self._draining.add(name)
        else:
            self._draining.discard(name)
        self.membership_version += 1

    @property
    def draining(self) -> List[str]:
        return sorted(self._draining)

    # ------------------------------------------------------------------
    # Elastic transitions: dual-apply writes + old-first reads while the
    # migrator copies records onto the new placement.
    # ------------------------------------------------------------------
    @property
    def in_transition(self) -> bool:
        return self._old_member_names is not None

    def begin_transition(self) -> None:
        """Snapshot current membership as the *old* placement epoch.

        Call **before** the membership change (add/remove/drain).  Until
        :meth:`complete_transition`, writes apply to the union of old and
        new placement and reads prefer the old (guaranteed-complete)
        replicas, so no acknowledged key is unreachable mid-move.
        """
        if self._old_member_names is not None:
            raise ClusterError(
                f"group {self.group_id} is already in transition"
            )
        self._old_member_names = list(self._member_names)
        self._old_nodes = dict(self._nodes)
        self._transition_cache.clear()
        self.membership_version += 1

    def complete_transition(self) -> None:
        """Cut over: the new placement is authoritative from here on."""
        if self._old_member_names is None:
            raise ClusterError(
                f"group {self.group_id} is not in transition"
            )
        self._old_member_names = None
        self._old_nodes = {}
        self._transition_cache.clear()
        self.membership_version += 1

    def old_replicas_for(self, key: bytes) -> List[StorageNode]:
        """The key's replicas under the pre-transition membership."""
        if self._old_member_names is None:
            return self.replicas_for(key)
        ranked = rendezvous_ranking(self._old_member_names, key)
        return [
            self._old_nodes[name] for name in ranked[: self.replica_count]
        ]

    def _write_replicas_for(self, key: bytes) -> List[StorageNode]:
        """Write targets for ``key``: new placement, plus — during a
        transition — any old replica not in it (the dual-apply set)."""
        if self._old_member_names is None:
            return self.replicas_for(key)
        nodes = self._transition_cache.get(key)
        if nodes is None:
            nodes = list(self.replicas_for(key))
            current = {node.name for node in nodes}
            for node in self.old_replicas_for(key):
                if node.name not in current:
                    nodes.append(node)
            self._transition_cache[key] = nodes
        return nodes

    # ------------------------------------------------------------------
    def replicas_for(self, key: bytes) -> List[StorageNode]:
        """The ``replica_count`` nodes responsible for ``key``.

        Memoized per key, and keys ranked alike share one list (callers
        must not mutate it); both memos self-invalidate when
        ``membership_version`` moves past the version they were built
        at.  With drains pending, ranking goes through the weighted path
        (draining members weight 0 — ranked last, so they fall out of
        the top ``replica_count``).
        """
        if self._placement_version != self.membership_version:
            self._placement_cache.clear()
            self._placements.clear()
            self._placement_version = self.membership_version
        nodes = self._placement_cache.get(key)
        if nodes is None:
            if self._draining:
                ranked = weighted_rendezvous_ranking(
                    [
                        (name, 0.0 if name in self._draining else 1.0)
                        for name in self._member_names
                    ],
                    key,
                )
            else:
                ranked = rendezvous_ranking(self._member_names, key)
            names = tuple(ranked[: self.replica_count])
            nodes = self._placements.get(names)
            if nodes is None:
                nodes = self._placements[names] = list(
                    map(self._nodes.__getitem__, names)
                )
            self._placement_cache[key] = nodes
        return nodes

    @property
    def replicates_every_key(self) -> bool:
        """Every member is a replica of every key: no more members than
        ``replica_count``, no transition open and no member draining."""
        return (
            len(self._nodes) <= self.replica_count
            and self._old_member_names is None
            and not self._draining
        )

    def put(self, key: bytes, version: int, value: Optional[bytes]) -> int:
        """A :meth:`put_batch` of one."""
        return self.put_batch([(key, version, value)])

    def put_batch(self, items) -> int:
        """Write a batch of ``(key, version, value)`` triples, one engine
        batch per node; returns the total replica writes performed.

        The batch partitions by replica set: every node receives the
        sub-batch of items it replicates, in input order, as a single
        :meth:`StorageNode.put_batch` call — so a slice's worth of keys
        costs each engine one batched pass instead of one put per key
        per replica.  A group that :attr:`replicates_every_key` hands
        every member the whole batch and ranks no key: placement is
        ranked when a key is first read.  The record bodies are built
        once (:class:`~repro.qindb.records.Bodies`, here unless the batch
        arrives with them) and every replica's sub-batch shares them:
        a record is checksummed and assembled once, not once per copy.
        A down node drops its whole sub-batch, each item
        noted in ``repair_backlog`` (the update pipeline repairs it on
        recovery), and the write is reported partial via the return
        value; an item *no* live replica accepted parks in
        ``pending_writes`` under ``park_when_unavailable``, else raises
        :class:`ReplicationError`.
        """
        if not items:
            return 0
        items = Bodies.of(items)
        if self.replicates_every_key:
            replicas_for = None
            shares = dict.fromkeys(self._nodes.values(), items)
        else:
            if self._old_member_names is None:
                replicas_for = self.replicas_for
            else:
                replicas_for = self._write_replicas_for
            shares = self._shares(items, replicas_for)
        written = 0
        delivered: set = set()
        any_down = False
        for node in self.nodes:
            sub_batch = shares.get(node)
            if sub_batch is None:
                continue
            try:
                node.put_batch(sub_batch)
            except NodeDownError:
                any_down = True
                for key, version, _value in sub_batch:
                    self.note_missed(node.name, "put", key, version)
                continue
            written += len(sub_batch)
            delivered.add(node)
        if not any_down:
            # Every replica took its sub-batch, so no item can be
            # replica-less; skip the per-item accounting pass.
            return written
        if replicas_for is None:
            unplaced = () if delivered else items
        else:
            unplaced = [
                item for item in items
                if not any(node in delivered for node in replicas_for(item[0]))
            ]
        for item in unplaced:
            if self.park_when_unavailable:
                self.pending_writes.append(item)
                continue
            raise ReplicationError(
                f"no live replica for key {item[0]!r} in "
                f"group {self.group_id}"
            )
        return written

    @staticmethod
    def _shares(items: Bodies, replicas_for) -> Dict[StorageNode, Bodies]:
        """Each node's sub-batch of ``items``: the items ``replicas_for``
        places on it, in input order."""
        # Buckets key on the node *object* (identity hash), sparing the
        # per-item-per-replica ``node.name`` attribute loads, and hold
        # indices: a node's share is cut from the shared batch once.
        # During an elastic transition ``replicas_for`` is the dual-apply
        # union, so both placement epochs see the batch.
        per_node: Dict[StorageNode, List[int]] = {}
        get_bucket = per_node.get
        for index, item in enumerate(items):
            for node in replicas_for(item[0]):
                bucket = get_bucket(node)
                if bucket is None:
                    per_node[node] = [index]
                else:
                    bucket.append(index)
        return {node: items.take(indices) for node, indices in per_node.items()}

    def _elastic_tiers(self, key: bytes) -> List[List[StorageNode]]:
        """The key's read tiers during a transition or a drain, each in
        rendezvous order: non-draining before draining and, within each,
        the old placement (guaranteed complete mid-move) before new-only
        replicas whose copies may still be in flight."""
        old = self.old_replicas_for(key)
        new_only = [node for node in self.replicas_for(key) if node not in old]
        draining = self._draining
        return [
            [node for node in part if (node.name in draining) is leaving]
            for leaving in (False, True)
            for part in (old, new_only)
        ]

    def _choose(
        self, key: bytes, assigned: Dict[StorageNode, int], tried: tuple
    ) -> Optional[StorageNode]:
        """The replica the next read of ``key`` goes to: the one rule
        every read uses, or ``None`` once no live replica is untried.

        The key's replicas come in preference tiers: outside a
        transition and a drain one, ``replicas_for(key)``, else
        :meth:`_elastic_tiers`.  In the first tier holding a live
        replica not in ``tried``, the one with the fewest reads
        ``assigned`` (node -> reads given it in this batch) wins; ties
        go to the fewest reads served (``StorageNode.gets``), then to
        the earlier rendezvous rank.  Nothing here reads a device clock,
        so a storage-only change cannot re-route a read.
        """
        if self._old_member_names is None and not self._draining:
            tiers = (self.replicas_for(key),)
        else:
            tiers = self._elastic_tiers(key)
        for tier in tiers:
            choice = None
            for node in tier:
                if node.is_up and node not in tried:
                    load = assigned.get(node, 0)
                    if choice is None or load < least or (
                        load == least and node.gets < served
                    ):
                        choice, least, served = node, load, node.gets
            if choice is not None:
                return choice
        return None

    def read_order(
        self, key: bytes, assigned: Optional[Dict[str, int]] = None
    ) -> List[StorageNode]:
        """The key's replicas in the order reads would try them: the
        :meth:`_choose` rule applied repeatedly, each pick counted as
        tried, followed by the down replicas.

        ``assigned`` maps node names to reads already given them in this
        batch (``None``, the default, is an empty map), so a hot key's
        reads rotate across its live replicas.
        """
        # The write targets are the read candidates: in a transition,
        # both placement epochs.
        replicas = self._write_replicas_for(key)
        names = assigned or {}
        load = {node: names.get(node.name, 0) for node in replicas}
        order: tuple = ()
        while True:
            node = self._choose(key, load, order)
            if node is None:
                break
            order += (node,)
        return [*order, *(node for node in replicas if not node.is_up)]

    def get(self, key: bytes, version: int) -> bytes:
        """A :meth:`multi_get` of one, tallied in ``gets``."""
        self.gets += 1
        return self.multi_get([(key, version)])[0]

    def multi_get(self, items, missing: str = "raise") -> List:
        """Read a batch of ``(key, version)`` pairs, one engine batch per
        node; returns the values in input order.

        The paper sends requests "to the relevant nodes in parallel"; the
        simulation models that fan-out actually *spreading* load across a
        key's replicas, and masking a replica that is down, up but
        *missing* the key (it lost an unflushed tail in a crash and has
        not been repaired yet) or holding a frame that fails its checks —
        only a key no live replica could serve raises.

        The scatter half of the serving fast path: every try of every
        item — first round and failover, steady and elastic — goes where
        :meth:`_choose` sends it, given the reads already assigned in
        this call (so a batch of hot keys spreads across the replica set)
        and the replicas that already failed the item.  Sub-batches issue
        as a single :meth:`StorageNode.get_batch` per node, and failures
        fail over *per key*: an item its replica could not serve retries
        on the key's next choice in a later round, while the resolved
        rest of the batch stands.

        Each fall-through is counted: a down replica in an item's
        order ticks its ``skipped_gets``, an up replica missing the key
        (``None`` in its sub-batch result: a lost unflushed tail) its
        ``missing_gets``, one whose sub-batch raised
        :class:`~repro.errors.CorruptionError` its ``corrupt_gets``, and
        an item answered by a non-preferred replica the group's
        ``failover_gets``.

        With every replica tried, a key raises the ``CorruptionError`` of
        a corrupt copy if it met one; else, if live replicas missed it,
        :class:`~repro.errors.KeyNotFoundError` when ``missing="raise"``
        (the default) or reads as ``None`` when
        ``missing="none"`` (the serving frontend's mode: one cold key
        must not fail a coalesced batch); with no replica up,
        :class:`~repro.errors.ReplicationError`.
        """
        if missing not in ("raise", "none"):
            raise ClusterError(
                f'multi_get missing mode must be "raise" or "none", '
                f"got {missing!r}"
            )
        count = len(items)
        if not count:
            return []
        self.multi_gets += 1
        self.batched_gets += count
        results: List = [None] * count
        #: per item: the replicas that failed it (missing, corrupt or
        #: down at dispatch)
        tried: List[tuple] = [()] * count
        #: per item: some live replica answered but lacked the key
        live_missed = [False] * count
        #: item -> the CorruptionError a live replica answered it with
        corrupt: Dict[int, CorruptionError] = {}
        #: node -> items assigned this call
        assigned: Dict[StorageNode, int] = {}
        assigned_to, item_at = assigned.get, items.__getitem__
        choose = self._choose
        pending = range(count)
        while pending:
            per_node: Dict[StorageNode, List[int]] = {}
            for index in pending:
                key = items[index][0]
                seen = tried[index]
                choice = choose(key, assigned, seen)
                if choice is None:
                    # Every live replica tried: the down ones left count
                    # as skipped.  A corrupt copy outranks "live replicas
                    # missed the key", which outranks "no replica was
                    # ever up".
                    for node in self.read_order(key):
                        if node not in seen:
                            node.skipped_gets += 1
                    if index in corrupt:
                        raise corrupt[index]
                    if not live_missed[index]:
                        raise ReplicationError(
                            f"all replicas down for key {key!r} in "
                            f"group {self.group_id}"
                        )
                    if missing == "raise":
                        raise KeyNotFoundError(
                            f"no live item for {key!r}/{items[index][1]}"
                        )
                    continue  # missing == "none": the slot stays None
                assigned[choice] = assigned_to(choice, 0) + 1
                per_node.setdefault(choice, []).append(index)
            retry: List[int] = []
            # Deterministic dispatch order (sorted node names), matching
            # the write path's per-node iteration; one node needs none.
            for node in per_node if len(per_node) == 1 else self.nodes:
                indices = per_node.get(node)
                if not indices:
                    continue
                #: the items this replica failed; they retry elsewhere
                lost = indices
                try:
                    values = node.get_batch(list(map(item_at, indices)))
                except NodeDownError:
                    node.skipped_gets += len(indices)
                except CorruptionError as exc:
                    # A frame failed its checks; the engine does not say
                    # whose, so the replica failed the whole sub-batch.
                    node.corrupt_gets += len(indices)
                    corrupt.update(dict.fromkeys(indices, exc))
                else:
                    lost = []
                    for index, value in zip(indices, values):
                        if value is None:
                            live_missed[index] = True
                            lost.append(index)
                        else:
                            results[index] = value
                            if tried[index]:
                                self.failover_gets += 1
                    node.missing_gets += len(lost)
                for index in lost:
                    tried[index] += (node,)
                retry += lost
            retry.sort()
            pending = retry
        return results

    def delete_batch(self, items) -> int:
        """Delete ``(key, version)`` pairs, one engine batch per node.

        Items partition by replica set (both placement epochs during a
        transition) and each node takes its sub-batch as a single
        :meth:`StorageNode.delete_batch` call; a down node is skipped
        and each miss noted in ``repair_backlog``.  Returns the total
        replica deletions performed.
        """
        per_node: Dict[StorageNode, List] = {}
        for item in items:
            for node in self._write_replicas_for(item[0]):
                per_node.setdefault(node, []).append(item)
        deleted = 0
        for node in self.nodes:
            sub_batch = per_node.get(node)
            if not sub_batch:
                continue
            try:
                node.delete_batch(sub_batch)
            except NodeDownError:
                for key, version in sub_batch:
                    self.note_missed(node.name, "delete", key, version)
                continue
            deleted += len(sub_batch)
        return deleted

    def retire_version(self, version: int) -> int:
        """Evict ``version`` from every member node, one
        :meth:`StorageNode.retire_version` call each.

        Every member is asked, whatever the placement, so a copy the
        migrator left behind (or has not withdrawn yet) goes too.  A
        down node gets one ``("retire", None, version)`` backlog entry
        that repair replays as one call, and parked writes of the
        version are discarded so they never resurrect it.  Returns the
        total replica deletions performed.
        """
        deleted = 0
        for node in self.nodes:
            try:
                deleted += node.retire_version(version)
            except NodeDownError:
                self.note_missed(node.name, "retire", None, version)
        self.pending_writes = [
            item for item in self.pending_writes if item[1] != version
        ]
        return deleted
