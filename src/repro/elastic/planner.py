"""Topology diffing: current vs. target placement into per-key moves.

The planner is the pure half of the elastic subsystem: given a cluster
whose topology is mid-change (a group in transition after a node
join/leave, or slots marked moving toward another group), it diffs the
old and new placements of every live ``(key, version)`` and emits one
:class:`MoveTask` per key that actually changes hands.  Tasks carry
which nodes need a copy and which hold a stale one — executing them
under a bandwidth budget is the :class:`~repro.elastic.migrator.Migrator`'s
job.

Rendezvous hashing keeps plans minimal by construction: a single-node
join or leave disturbs only ~1/n of a group's keys, and a slot move
touches exactly the keys hashing into that slot — never the whole
keyspace (the paper's argument for hash-to-group indirection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ClusterError
from repro.mint.cluster import MintCluster
from repro.mint.group import NodeGroup
from repro.mint.node import StorageNode


@dataclass(frozen=True)
class MoveTask:
    """One key's worth of data movement.

    ``versions`` are every live version referencing the key, ascending —
    the migrator copies them in that order so a dedup chain's base
    record lands before the value-less records that point at it.
    """

    key: bytes
    versions: Tuple[int, ...]
    #: group whose nodes hold the authoritative copies to read from
    source_group: NodeGroup
    #: group owning the copy targets (for missed-write bookkeeping);
    #: equals ``source_group`` for intra-group transitions
    target_group: NodeGroup
    #: nodes that need the records copied onto them
    copy_targets: Tuple[StorageNode, ...]
    #: nodes left holding stale copies once the move cuts over
    withdraw_targets: Tuple[StorageNode, ...]


class RebalancePlanner:
    """Diffs placements into the minimal set of per-key move tasks."""

    def __init__(self, cluster: MintCluster) -> None:
        self.cluster = cluster

    # ------------------------------------------------------------------
    def _live_keys(self) -> Dict[bytes, List[int]]:
        """Every live key -> its referencing versions, ascending."""
        keys: Dict[bytes, List[int]] = {}
        for version in sorted(self.cluster.version_keys):
            for key in set(self.cluster.version_keys[version]):
                keys.setdefault(key, []).append(version)
        return keys

    # ------------------------------------------------------------------
    def plan_group_transition(self, group: NodeGroup) -> List[MoveTask]:
        """Moves for an in-transition group (post join/leave/drain).

        Call after :meth:`~repro.mint.group.NodeGroup.begin_transition`
        and the membership change: the plan is the per-key diff between
        the snapshotted old placement and the current one.  Keys whose
        replica set is unchanged produce no task — the ~(n-1)/n majority
        under rendezvous hashing.
        """
        if not group.in_transition:
            raise ClusterError(
                f"group {group.group_id} is not in transition; nothing to plan"
            )
        tasks: List[MoveTask] = []
        for key, versions in self._live_keys().items():
            if self.cluster.group_for(key) is not group:
                continue
            new = group.replicas_for(key)
            old = group.old_replicas_for(key)
            new_names = {node.name for node in new}
            old_names = {node.name for node in old}
            copy = tuple(n for n in new if n.name not in old_names)
            withdraw = tuple(n for n in old if n.name not in new_names)
            if copy or withdraw:
                tasks.append(
                    MoveTask(
                        key=key,
                        versions=tuple(versions),
                        source_group=group,
                        target_group=group,
                        copy_targets=copy,
                        withdraw_targets=withdraw,
                    )
                )
        tasks.sort(key=lambda task: task.key)
        return tasks

    def plan_slot_moves(
        self, moving: Dict[int, Tuple[NodeGroup, NodeGroup]]
    ) -> List[MoveTask]:
        """Moves for slots changing groups (split/merge).

        Every live key hashing into a moving slot copies onto the target
        group's full replica set and withdraws from the source group's —
        the group boundary changes, so the whole replica set moves.
        """
        tasks: List[MoveTask] = []
        for key, versions in self._live_keys().items():
            move = moving.get(self.cluster.slot_for(key))
            if move is None:
                continue
            source, target = move
            tasks.append(
                MoveTask(
                    key=key,
                    versions=tuple(versions),
                    source_group=source,
                    target_group=target,
                    copy_targets=tuple(target.replicas_for(key)),
                    withdraw_targets=tuple(source.replicas_for(key)),
                )
            )
        tasks.sort(key=lambda task: task.key)
        return tasks


__all__ = ["MoveTask", "RebalancePlanner"]
