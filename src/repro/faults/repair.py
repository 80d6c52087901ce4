"""Re-replication of records a node missed while it was down.

When a node rejoins (its engine crash-recovered from flash), two kinds
of damage remain:

* **missed writes** — puts, deletes and version evictions the group
  routed around while the node was down, recorded per node in
  :attr:`~repro.mint.group.NodeGroup.repair_backlog`;
* **lost tail** — records the node had accepted but not flushed before
  the power failure, which crash recovery cannot resurrect.

:class:`ReplicaRepairer` replays the backlog in arrival order, then
audits every ``(key, version)`` the cluster still references against the
node's replica responsibility and copies anything missing from a healthy
peer — restoring the group to ``replica_count`` live copies.

Copies preserve the stored *representation*: a value-less deduplicated
record is re-created value-less (via :meth:`~repro.qindb.engine.QinDB.peek`),
never materialised through the GET traceback — so a repaired fleet stays
byte-identical to one that never faulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bifrost.signature import signature
from repro.errors import CorruptionError, KeyNotFoundError, NodeDownError
from repro.mint.cluster import MintCluster
from repro.mint.group import NodeGroup
from repro.mint.integrity import leaf_checksum, seal_summary
from repro.mint.node import StorageNode


@dataclass
class AuditResult:
    """What one integrity audit (tiered or naive) found and did."""

    slices_audited: int = 0
    records_sampled: int = 0
    #: full cryptographic hashes computed — THE tiered-vs-naive number
    full_hashes: int = 0
    leaf_mismatches: int = 0
    path_failures: int = 0
    seal_failures: int = 0
    signature_mismatches: int = 0
    full_sweeps: int = 0
    divergent_records: int = 0
    records_repaired: int = 0
    #: records a peek could not find (left to the repair sweep)
    missing_records: int = 0

    @property
    def clean(self) -> bool:
        return (
            self.leaf_mismatches == 0
            and self.path_failures == 0
            and self.seal_failures == 0
            and self.signature_mismatches == 0
        )

    def merge(self, other: "AuditResult") -> None:
        self.slices_audited += other.slices_audited
        self.records_sampled += other.records_sampled
        self.full_hashes += other.full_hashes
        self.leaf_mismatches += other.leaf_mismatches
        self.path_failures += other.path_failures
        self.seal_failures += other.seal_failures
        self.signature_mismatches += other.signature_mismatches
        self.full_sweeps += other.full_sweeps
        self.divergent_records += other.divergent_records
        self.records_repaired += other.records_repaired
        self.missing_records += other.missing_records


@dataclass
class RepairResult:
    """What one node's repair run did."""

    keys_copied: int = 0
    bytes_copied: int = 0
    deletes_applied: int = 0
    #: copies re-fetched from another data center's cluster because no
    #: group peer survived with the record (correlated tail loss)
    remote_copies: int = 0
    #: total device-clock seconds the run consumed across the group
    #: (peer reads and the rejoining node's writes)
    device_seconds: float = 0.0


def _peek(node: StorageNode, key: bytes, version: int):
    """``node.engine.peek``, with a copy whose bytes fail their checks
    read as ``()``: held, but unreadable."""
    try:
        return node.engine.peek(key, version)
    except CorruptionError:
        return ()


def _land(node: StorageNode, key: bytes, version: int, value) -> None:
    """Put one record on ``node``, or restore the deleted copy a node
    that withdrew it still holds: a version is written once."""
    if not (node.is_up and node.engine.restore(key, version)):
        node.put_batch([(key, version, value)])


class ReplicaRepairer:
    """Copies missed ``(key, version)`` records from healthy peers."""

    def __init__(self, duration_hist=None) -> None:
        #: optional :class:`~repro.obs.hist.LogHistogram` accumulating
        #: per-run repair device-seconds — mergeable across repairers,
        #: so a fleet-wide repair-duration distribution costs nothing
        self.duration_hist = duration_hist

    def repair_node(
        self,
        cluster: MintCluster,
        group: NodeGroup,
        node: StorageNode,
        fleet=None,
    ) -> RepairResult:
        """Bring one rejoined node back to full replication.

        Backlog first (it carries the deletes an audit cannot see), then
        the audit sweep for the lost unflushed tail.  Versions audit in
        ascending order so a dedup chain's base record lands on the node
        before the value-less records that point at it.

        ``fleet`` (a DC-name → :class:`MintCluster` map) arms the last
        line of defence: when a whole group crashed at once, a record can
        be gone from *every* local replica's unflushed tail — the only
        surviving copy is another data center's, so repair re-fetches it
        cross-region (the slice already travelled there over Bifrost).
        """
        if not node.is_up:
            raise NodeDownError(
                f"cannot repair {node.name}: node is still down"
            )
        result = RepairResult()
        clocks_before = {
            peer.name: peer.engine.device.now for peer in group.nodes
        }
        for op, key, version in group.repair_backlog.pop(node.name, []):
            if op == "retire":
                result.deletes_applied += node.retire_version(version)
            elif op == "delete":
                try:
                    node.delete_batch([(key, version)])
                    result.deletes_applied += 1
                except KeyNotFoundError:
                    pass  # the node never had the record; nothing to drop
            else:
                self._copy_if_missing(
                    group, node, key, version, result, cluster, fleet
                )
        self._replay_parked(group, result)
        for version in sorted(cluster.version_keys):
            seen = set()
            for key in cluster.version_keys[version]:
                if key in seen or cluster.group_for(key) is not group:
                    continue
                seen.add(key)
                if any(
                    replica is node for replica in group.replicas_for(key)
                ):
                    self._copy_if_missing(
                        group, node, key, version, result, cluster, fleet
                    )
        result.device_seconds = sum(
            peer.engine.device.now - clocks_before[peer.name]
            for peer in group.nodes
        )
        if self.duration_hist is not None:
            self.duration_hist.add(result.device_seconds)
        return result

    # ------------------------------------------------------------------
    def _replay_parked(self, group: NodeGroup, result: RepairResult) -> None:
        """Land writes parked while their whole replica set was down.

        An entry lands on every live replica that lacks it; entries whose
        replicas are all still down stay parked for a later repair run.
        """
        still_parked: List[tuple] = []
        for key, version, value in group.pending_writes:
            landed = False
            for replica in group.replicas_for(key):
                if not replica.is_up:
                    continue
                landed = True
                if not replica.engine.exists(key, version):
                    _land(replica, key, version, value)
                    result.keys_copied += 1
                    result.bytes_copied += len(key) + len(value or b"")
            if not landed:
                still_parked.append((key, version, value))
        group.pending_writes = still_parked

    def _copy_if_missing(
        self,
        group: NodeGroup,
        node: StorageNode,
        key: bytes,
        version: int,
        result: RepairResult,
        cluster: Optional[MintCluster] = None,
        fleet=None,
    ) -> None:
        if node.engine.exists(key, version):
            return
        record = self._read_from_peers(group, node, key, version)
        remote = False
        if record is None and fleet is not None and cluster is not None:
            # The version is still referenced locally but no group peer
            # has the record (correlated tail loss): only re-fetch
            # cross-region for keys the cluster actually acknowledged —
            # a version dropped mid-outage must stay dropped.
            if version in cluster.version_keys:
                record = self._read_from_fleet(cluster, fleet, key, version)
                remote = record is not None
        if record is None:
            # No copy survives anywhere (or the version was dropped while
            # the node was down — never resurrect it).
            return
        value, deduplicated = record
        _land(node, key, version, None if deduplicated else value)
        result.keys_copied += 1
        result.bytes_copied += len(key) + len(value or b"")
        if remote:
            result.remote_copies += 1

    def copy_record(
        self,
        source_group: NodeGroup,
        target: StorageNode,
        key: bytes,
        version: int,
        result: Optional[RepairResult] = None,
    ) -> bool:
        """Copy one stored record onto ``target``, representation intact.

        The elastic migrator's building block, sharing the repairer's
        peek-based machinery: a value-less deduplicated record is
        re-created value-less, so migrated data stays byte-identical to
        data that never moved.  Idempotent — a record the target already
        holds is left untouched.  Reads from *any* live node of the
        source group (mid-transition, placement there may be shifting
        under the copy).  Returns ``False`` only if no live source node
        held the record.
        """
        if target.engine.exists(key, version):
            return True
        for peer in source_group.nodes:
            if peer is target or not peer.is_up:
                continue
            record = peer.engine.peek(key, version)
            if record is None:
                continue
            value, deduplicated = record
            _land(target, key, version, None if deduplicated else value)
            if result is not None:
                result.keys_copied += 1
                result.bytes_copied += len(key) + len(value or b"")
            return True
        return False

    def _read_from_fleet(
        self, cluster: MintCluster, fleet, key: bytes, version: int
    ) -> Optional[Tuple[Optional[bytes], bool]]:
        """The stored record from any other data center holding it."""
        for other in fleet.values():
            if other is cluster:
                continue
            remote_group = other.group_for(key)
            for peer in remote_group.replicas_for(key):
                if not peer.is_up:
                    continue
                record = peer.engine.peek(key, version)
                if record is not None:
                    return record
        return None

    def _read_from_peers(
        self,
        group: NodeGroup,
        node: StorageNode,
        key: bytes,
        version: int,
    ) -> Optional[Tuple[Optional[bytes], bool]]:
        """The stored record from the first healthy peer that has it."""
        for peer in group.replicas_for(key):
            if peer is node or not peer.is_up:
                continue
            record = peer.engine.peek(key, version)
            if record is not None:
                return record
        return None

    # ------------------------------------------------------------------
    def audit_node(
        self,
        cluster: MintCluster,
        node: StorageNode,
        naive: bool = False,
    ) -> AuditResult:
        """Verify one node's stored records against the integrity index.

        **Tiered** (default): per slice, sample ``ceil(log2(n)) + 1`` of
        the node's records, recompute their CRC32 leaves from the stored
        bytes, verify each leaf's Merkle path up to the BLAKE2b-sealed
        root, and full-hash only the sampled values against their
        build-time signatures — so the expensive cryptographic hashing
        is O(log n) per slice (``integrity.*.audit_hashes``).  A copy
        whose stored bytes fail their checks counts as a leaf mismatch.
        Any divergence triggers a full leaf sweep of that slice
        (:meth:`_sweep_slice`).

        **Naive** (``naive=True``): the pre-tiered baseline — full-hash
        every stored record of every slice.  Same detection power on a
        sweep, O(n) hashes; the bandwidth bench reports both counts.
        """
        if not node.is_up:
            raise NodeDownError(f"cannot audit {node.name}: node is down")
        integrity = cluster.integrity
        result = AuditResult()
        counters = integrity.counters
        for summary in integrity.all_summaries():
            indices = [
                index
                for index, (key, _version) in enumerate(summary.item_keys)
                if any(
                    replica is node
                    for replica in cluster.group_for(key).replicas_for(key)
                )
            ]
            if not indices:
                continue
            result.slices_audited += 1
            counters.audited_slices += 1
            # One BLAKE2b re-seal check per audited slice: the recorded
            # tree itself must still match its tamper-evident seal.
            counters.audit_hashes += 1
            result.full_hashes += 1
            if seal_summary(summary.slice_id, summary.root) != summary.seal:
                result.seal_failures += 1
                counters.divergent_records += 1
                continue
            if naive:
                sampled = indices
            else:
                count = integrity.sample_size(len(indices))
                step = max(1, len(indices) // count)
                sampled = indices[::step][:count]
            diverged = False
            for index in sampled:
                key, version = summary.item_keys[index]
                build_sig = summary.signatures[index]
                result.records_sampled += 1
                counters.audited_records += 1
                record = _peek(node, key, version)
                if record is None:
                    result.missing_records += 1
                    continue
                if not record:  # unreadable: a damaged leaf
                    result.leaf_mismatches += 1
                    diverged = True
                    continue
                value, stored_dedup = record
                stored_value = None if stored_dedup else value
                leaf = leaf_checksum(key, version, stored_value)
                counters.audit_leaf_checks += 1
                if leaf != summary.levels[0][index]:
                    result.leaf_mismatches += 1
                    diverged = True
                    continue
                if not summary.verify_path(index, leaf):
                    result.path_failures += 1
                    diverged = True
                    continue
                if stored_value is not None and build_sig is not None:
                    counters.audit_hashes += 1
                    result.full_hashes += 1
                    if signature(stored_value) != build_sig:
                        result.signature_mismatches += 1
                        diverged = True
            if diverged:
                self._sweep_slice(
                    cluster, node, summary, indices, result, counters
                )
        return result

    def _sweep_slice(
        self, cluster, node, summary, indices, result, counters
    ) -> None:
        """Divergence response: leaf-check every record of the slice on
        this node and count each that diverges.  Only a record the node
        does not hold is re-landed, from a checksum-verified peer; a held
        copy stays in place (a version is written once)."""
        counters.audit_full_sweeps += 1
        result.full_sweeps += 1
        for index in indices:
            key, version = summary.item_keys[index]
            expected = summary.levels[0][index]
            counters.audit_leaf_checks += 1
            record = _peek(node, key, version)
            if record:
                value, stored_dedup = record
                stored_value = None if stored_dedup else value
                if leaf_checksum(key, version, stored_value) == expected:
                    continue
            result.divergent_records += 1
            counters.divergent_records += 1
            if record is not None:
                continue  # a held copy: never re-put
            group = cluster.group_for(key)
            for peer in group.replicas_for(key):
                if peer is node or not peer.is_up:
                    continue
                peer_record = _peek(peer, key, version)
                if not peer_record:
                    continue
                peer_value, peer_dedup = peer_record
                peer_stored = None if peer_dedup else peer_value
                counters.audit_leaf_checks += 1
                if leaf_checksum(key, version, peer_stored) != expected:
                    continue  # this peer's copy is damaged too
                _land(node, key, version, peer_stored)
                result.records_repaired += 1
                counters.records_repaired += 1
                break

    def audit_cluster(
        self, cluster: MintCluster, naive: bool = False
    ) -> AuditResult:
        """Audit every live node of a cluster; merged result."""
        result = AuditResult()
        for group in cluster.groups:
            for node in group.nodes:
                if node.is_up:
                    result.merge(self.audit_node(cluster, node, naive=naive))
        return result
