"""Throttled background migration executing the planner's move tasks.

The :class:`Migrator` owns the four elastic membership operations — node
join, node leave, group split, group merge — each a simulation process
that runs *concurrently* with serving traffic and update cycles:

1. open the transition (dual-apply writes arm: every write lands on both
   the old and the new placement, so records ingested mid-move need no
   copying at all);
2. plan the diff (:class:`~repro.elastic.planner.RebalancePlanner`);
3. stream each task's wanted records over (:meth:`Migrator._wanted`),
   throttled to a configurable bandwidth and key-rate budget, through
   the repairer's one read rule and one landing
   (:func:`~repro.faults.repair.read_copy`,
   :func:`~repro.faults.repair.land_copy`) so deduplicated records
   migrate value-less — a migrated fleet stays byte-identical to one
   provisioned that way from the start;
4. verify every target holds every wanted record (re-copying after
   crashes — a fault mid-rebalance converges instead of losing data),
   then cut over;
5. withdraw the stale copies left on the old placement.

A version dropped while its keys are mid-move is skipped, never
resurrected: the wanted records re-check ``cluster.version_keys``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.elastic.planner import MoveTask, RebalancePlanner
from repro.errors import (
    ConfigError,
    KeyNotFoundError,
    MigrationError,
    NodeDownError,
)
from repro.faults.repair import land_copy, read_copy
from repro.mint.cluster import MintCluster
from repro.mint.group import NodeGroup


class _ChainBase:
    """A retired chain base a task wants: known by version, its record
    ``(version, value, deleted)`` read through ``referent`` — the live
    version whose chain lands on it — when a target first lacks it."""

    __slots__ = ("referent", "copy")

    def __init__(self, referent: int) -> None:
        self.referent = referent
        self.copy = None


@dataclass(frozen=True)
class MigratorConfig:
    """The movement budget and convergence knobs."""

    #: copy throttle: simulated seconds accrue per byte moved
    bandwidth_bps: float = 8_000_000.0
    #: ops throttle: upper bound on migrated records per second
    max_records_per_s: float = 4000.0
    #: pause between verify rounds while waiting out a crashed target
    verify_interval_s: float = 0.5
    #: verify rounds before the operation is declared stuck
    max_verify_rounds: int = 240

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigError("bandwidth_bps must be positive")
        if self.max_records_per_s <= 0:
            raise ConfigError("max_records_per_s must be positive")
        if self.verify_interval_s <= 0:
            raise ConfigError("verify_interval_s must be positive")
        if self.max_verify_rounds < 1:
            raise ConfigError("max_verify_rounds must be >= 1")


@dataclass
class MigrationStats:
    """What the migrator moved, skipped, and retried."""

    operations: int = 0
    keys_moved: int = 0
    records_copied: int = 0
    #: records already present at the target (dual-applied writes)
    records_skipped: int = 0
    #: retired dedup-chain bases carried along (installed as deleted)
    bases_copied: int = 0
    bytes_moved: int = 0
    withdrawals: int = 0
    #: copy attempts that hit a down target (retried by verify)
    copy_faults: int = 0
    #: records the verify pass had to re-copy
    verify_retries: int = 0
    total_move_s: float = 0.0
    #: source copies passed over because they did not read back
    unreadable_copies: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "operations": self.operations,
            "keys_moved": self.keys_moved,
            "records_copied": self.records_copied,
            "records_skipped": self.records_skipped,
            "bases_copied": self.bases_copied,
            "bytes_moved": self.bytes_moved,
            "withdrawals": self.withdrawals,
            "copy_faults": self.copy_faults,
            "verify_retries": self.verify_retries,
            "total_move_s": self.total_move_s,
            "unreadable_copies": self.unreadable_copies,
        }


class Migrator:
    """Executes elastic membership operations on a live cluster."""

    def __init__(
        self,
        sim,
        cluster: MintCluster,
        config: Optional[MigratorConfig] = None,
        tracer=None,
        track: str = "elastic",
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.config = config or MigratorConfig()
        self.tracer = tracer
        self.track = track
        self.stats = MigrationStats()
        #: completed operations: kind, target, timing, volume — the
        #: topology log a baseline replay applies at time zero
        self.log: List[Dict[str, object]] = []
        self._active = 0

    @property
    def idle(self) -> bool:
        return self._active == 0

    # ------------------------------------------------------------------
    # The four membership operations.  Each returns the sim process;
    # drive it with ``sim.run(until=process)`` or let concurrent cycle
    # traffic drive the clock past it.
    # ------------------------------------------------------------------
    def join_node(self, group: NodeGroup):
        """Spawn a node into ``group`` and migrate its share of keys."""
        return self.sim.process(self._join(group))

    def leave_node(self, group: NodeGroup, name: str):
        """Drain ``name`` out of ``group``, then decommission it."""
        return self.sim.process(self._leave(group, name))

    def split_group(self, source: NodeGroup):
        """Stand up a new group and move half of ``source``'s slots."""
        return self.sim.process(self._split(source))

    def merge_group(self, source: NodeGroup, target: NodeGroup):
        """Move all of ``source``'s slots to ``target``; retire it."""
        return self.sim.process(self._merge(source, target))

    # ------------------------------------------------------------------
    def _begin(self, kind: str, target: str) -> Dict[str, object]:
        if self._active:
            raise MigrationError(
                f"cannot start {kind}: another rebalance is in flight"
            )
        self._active += 1
        record: Dict[str, object] = {
            "kind": kind,
            "target": target,
            "started_at_s": self.sim.now,
        }
        self._instant(f"rebalance:{kind}:start", target=target)
        return record

    def _finish(self, record: Dict[str, object]) -> None:
        self._active -= 1
        record["finished_at_s"] = self.sim.now
        record["duration_s"] = (
            record["finished_at_s"] - record["started_at_s"]
        )
        self.stats.operations += 1
        self.stats.total_move_s += record["duration_s"]
        self.log.append(record)
        self._instant(
            f"rebalance:{record['kind']}:done", target=record["target"]
        )

    def _instant(self, name: str, **attrs) -> None:
        instant = getattr(self.tracer, "instant", None)
        if instant is not None:
            instant(name, track=self.track, at=self.sim.now, **attrs)

    # ------------------------------------------------------------------
    def _join(self, group: NodeGroup):
        record = self._begin("join", f"g{group.group_id}")
        group.begin_transition()
        node = self.cluster.spawn_node(group)
        record["node"] = node.name
        yield from self._run_transition(group, record)
        self._finish(record)

    def _leave(self, group: NodeGroup, name: str):
        record = self._begin("leave", f"g{group.group_id}/{name}")
        record["node"] = name
        group.begin_transition()
        group.mark_draining(name)
        yield from self._run_transition(group, record)
        self.cluster.decommission_node(group, name)
        self._finish(record)

    def _split(self, source: NodeGroup):
        record = self._begin("split", f"g{source.group_id}")
        target = self.cluster.add_group()
        # Every other slot moves: the keyspace halves hash-randomly, so
        # both groups keep a statistically even share (Feldman et al.'s
        # random-partitioning argument).
        slots = self.cluster.slots_of(source)[1::2]
        record["new_group"] = target.group_id
        record["slots"] = list(slots)
        yield from self._run_slot_moves(slots, source, target, record)
        self._finish(record)

    def _merge(self, source: NodeGroup, target: NodeGroup):
        record = self._begin(
            "merge", f"g{source.group_id}->g{target.group_id}"
        )
        slots = self.cluster.slots_of(source)
        record["slots"] = list(slots)
        yield from self._run_slot_moves(slots, source, target, record)
        self.cluster.remove_group(source)
        self._finish(record)

    # ------------------------------------------------------------------
    def _run_transition(
        self, group: NodeGroup, record: Dict[str, object]
    ) -> object:
        tasks = RebalancePlanner(self.cluster).plan_group_transition(group)
        record["keys_planned"] = len(tasks)
        yield from self._move(tasks, progress=group)
        group.complete_transition()
        self._instant("rebalance:cutover", target=record["target"])
        yield from self._withdraw(tasks)

    def _run_slot_moves(
        self,
        slots,
        source: NodeGroup,
        target: NodeGroup,
        record: Dict[str, object],
    ) -> object:
        for slot in slots:
            self.cluster.begin_slot_move(slot, target)
        tasks = RebalancePlanner(self.cluster).plan_slot_moves(
            {slot: (source, target) for slot in slots}
        )
        record["keys_planned"] = len(tasks)
        yield from self._move(tasks, progress=target)
        for slot in slots:
            self.cluster.complete_slot_move(slot)
        self._instant("rebalance:cutover", target=record["target"])
        yield from self._withdraw(tasks)

    # ------------------------------------------------------------------
    def _move(self, tasks: List[MoveTask], progress: NodeGroup) -> object:
        """Copy every task's wanted records, then verify until convergent.

        ``progress`` carries the ``moving_keys`` gauge (the receiving
        group for slot moves, the transitioning group otherwise).
        """
        config = self.config
        progress.moving_keys = len(tasks)
        try:
            remaining = len(tasks)
            for task in tasks:
                for version, record in self._wanted(task):
                    for target in task.copy_targets:
                        try:
                            moved = self._copy(task, version, record, target)
                        except NodeDownError:
                            # Target crashed under the copy: note a missed
                            # record so node repair converges too (verify
                            # retries either kind).
                            if record is None:
                                task.target_group.note_missed(
                                    target.name, "put", task.key, version
                                )
                            self.stats.copy_faults += 1
                            continue
                        if moved:
                            yield self.sim.timeout(
                                moved / config.bandwidth_bps
                                + 1.0 / config.max_records_per_s
                            )
                self.stats.keys_moved += 1
                remaining -= 1
                progress.moving_keys = remaining
            yield from self._verify(tasks, progress)
        finally:
            progress.moving_keys = 0

    # ------------------------------------------------------------------
    # Dedup-chain bases.  A value-less record resolves through older
    # versions of its key — possibly to a *retired* version's record the
    # GC retains only because the chain references it.  Moving the live
    # records alone would leave every migrated chain dangling, so the
    # base travels too, landed exactly as stored: value-bearing and
    # flagged deleted.
    # ------------------------------------------------------------------
    def _wanted(self, task: MoveTask):
        """The records ``task`` leaves on every copy target, in copy
        order, as ``(version, record)``: each live version with ``None``
        (read from a source when a target lacks it), then each retired
        chain base those versions resolve through, as a
        :class:`_ChainBase` (its version resolved from a source's
        memtable; its record read once, when a target first lacks it).

        A generator, so a version dropped meanwhile is passed over, never
        resurrected.  A base whose version is retained is one of the live
        versions' own records; one no up source can resolve right now is
        left to the verify loop.
        """
        live = self.cluster.version_keys
        for version in task.versions:
            if version in live:
                yield version, None
        for version in task.versions:
            if version not in live:
                continue
            base = self._base_version(task, version)
            if base is not None and base not in live:
                yield base, _ChainBase(version)

    def _base_version(self, task: MoveTask, version: int) -> Optional[int]:
        """The chain base ``(task.key, version)`` resolves to on the first
        up source that holds it and can resolve it, or ``None``."""
        for node in task.source_group.nodes:
            if not (node.is_up and node.engine.holds(task.key, version)):
                continue
            try:
                return node.engine.chain_base_version(task.key, version)
            except KeyNotFoundError:
                continue  # a partial chain: this source cannot resolve it
        return None

    def _has(self, target, task: MoveTask, version: int, record) -> bool:
        """Whether ``target`` already holds a wanted record: live, or for
        a chain base in any state."""
        if record is None:
            return target.engine.exists(task.key, version)
        return target.engine.holds(task.key, version)

    def _copy(self, task: MoveTask, version: int, record, target) -> int:
        """Land one wanted record on ``target`` unless it holds it;
        returns bytes moved (0: held, or no up source has it)."""
        stats = self.stats
        if self._has(target, task, version, record):
            if record is None:
                stats.records_skipped += 1  # dual-applied
            return 0
        if record is None:
            sources = (
                node for node in task.source_group.nodes if node is not target
            )
            copy = read_copy(sources, task.key, version, stats)
            if copy is None:
                return 0
            moved = land_copy(target, task.key, copy)
            stats.records_copied += 1
        else:
            if record.copy is None:
                record.copy = read_copy(
                    task.source_group.nodes, task.key, record.referent,
                    stats, base=True,
                )
                if record.copy is None:
                    return 0
            moved = land_copy(target, task.key, record.copy)
            stats.bases_copied += 1
        stats.bytes_moved += moved
        return moved

    def _verify(self, tasks: List[MoveTask], progress: NodeGroup) -> object:
        """Re-copy until every wanted record sits on every copy target.

        The convergence loop that makes a crash mid-rebalance safe: a
        target that lost its unflushed tail (or was down for the first
        pass) is retried every ``verify_interval_s`` until whole, up to
        ``max_verify_rounds``.
        """
        rounds = 0
        while True:
            missing = [
                (task, version, record, target)
                for task in tasks
                for version, record in self._wanted(task)
                for target in task.copy_targets
                if not self._has(target, task, version, record)
            ]
            if not missing:
                return
            rounds += 1
            if rounds > self.config.max_verify_rounds:
                raise MigrationError(
                    f"rebalance stuck: {len(missing)} records still "
                    f"missing after {rounds} verify rounds"
                )
            self.stats.verify_retries += len(missing)
            progress.moving_keys = len({entry[0].key for entry in missing})
            for task, version, record, target in missing:
                if not target.is_up:
                    continue
                try:
                    moved = self._copy(task, version, record, target)
                except NodeDownError:
                    continue
                if moved:
                    yield self.sim.timeout(
                        moved / self.config.bandwidth_bps
                    )
            yield self.sim.timeout(self.config.verify_interval_s)

    def _withdraw(self, tasks: List[MoveTask]) -> object:
        """Delete the stale copies the cutover left behind: every live
        version of the key, not only those planned — a version ingested
        mid-move was dual-applied to the old placement too.

        A down holder gets the delete queued in its repair backlog (the
        standard missed-op path), so recovery finishes the withdrawal.
        """
        config = self.config
        for task in tasks:
            removed = 0
            for version in sorted(self.cluster.version_keys):
                for node in task.withdraw_targets:
                    if not node.is_up:
                        task.source_group.note_missed(
                            node.name, "delete", task.key, version
                        )
                        continue
                    try:
                        node.delete_batch([(task.key, version)])
                        self.stats.withdrawals += 1
                        removed += 1
                    except KeyNotFoundError:
                        pass
                    except NodeDownError:
                        task.source_group.note_missed(
                            node.name, "delete", task.key, version
                        )
            if removed:
                yield self.sim.timeout(removed / config.max_records_per_s)


__all__ = ["MigrationStats", "Migrator", "MigratorConfig"]
