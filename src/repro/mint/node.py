"""One Mint storage node: a storage engine plus liveness state.

A node can *fail* (its memtable vanishes; only flash survives) and later
*recover* — the engine's own restart: for QinDB the paper's AOF scan, for
the LSM baseline a WAL replay.  While a node is down every operation
raises :class:`~repro.errors.NodeDownError`; the group layer routes
around it.

:class:`Engine` is everything Mint asks of a storage engine: the three
batch verbs and the version eviction, and nothing per key — a single
put, get or delete is a batch of one, so each operation has one path
from the cluster down to the device.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple

from repro.errors import NodeDownError
from repro.ssd.device import SimulatedSSD

#: ``(key, version)``, and the same with a value (``None``: deduplicated)
Item = Tuple[bytes, int]
Triple = Tuple[bytes, int, Optional[bytes]]


class Engine(Protocol):
    """The storage-engine interface a :class:`StorageNode` drives
    (:class:`~repro.qindb.engine.QinDB`, and the
    :class:`~repro.lsm.engine.LSMEngine` baseline)."""

    device: SimulatedSSD

    def put_batch(self, items: Sequence[Triple]) -> None:
        """Store ``(key, version, value)`` triples.  The group hands
        every replica the same kind of sequence — a
        :class:`~repro.qindb.records.Bodies`, the triples with their
        record bodies built — and an engine that frames records uses
        the bodies; any engine may read it as the triples it is.  No
        caller re-puts a held ``(key, version)``: QinDB refuses one
        (``DuplicateItemError``); the LSM baseline would overwrite."""

    def get_batch(self, items: Sequence[Item]) -> List[Optional[bytes]]:
        """Values in input order, ``None`` for an item with no live
        record or no stored value at the end of its dedup chain."""

    def delete_batch(self, items: Sequence[Item]) -> None:
        """Delete ``(key, version)`` pairs; raises
        :class:`~repro.errors.KeyNotFoundError` for one not live."""

    def retire_version(self, version: int) -> int:
        """Delete every live record of ``version`` the engine holds,
        wherever placement put it; returns how many."""

    def exists(self, key: bytes, version: int) -> bool:
        """Whether a live record is stored for ``(key, version)``."""

    def restore(self, key: bytes, version: int) -> bool:
        """Make a held, deleted ``(key, version)`` live again; whether it
        did.  Repair lands a record a node withdrew this way."""

    def peek(
        self, key: bytes, version: int
    ) -> Optional[Tuple[Optional[bytes], bool]]:
        """The record as stored, ``(value, deduplicated)``, or ``None``:
        the maintenance read replica repair copies from."""

    def stats(self):
        """A counter snapshot with at least ``user_bytes_written``,
        ``disk_used_bytes`` and the four batch tallies."""

    def restart(self) -> "Engine":
        """Power-fail the engine; return the one its recovery rebuilds."""


class StorageNode:
    """A named node wrapping one storage engine."""

    def __init__(self, name: str, engine: Engine) -> None:
        self.name = name
        self.engine: Engine = engine
        self.is_up = True
        self.puts = 0
        #: reads routed to this node: the load the replica choice ranks by
        self.gets = 0
        #: reads routed away from this node because it was down
        self.skipped_gets = 0
        #: reads this node served while *up* but missing the key (a lost
        #: unflushed tail awaiting repair); the group fails them over
        self.missing_gets = 0
        #: reads this node answered with a :class:`CorruptionError` (a
        #: stored frame failed its checks); the group fails them over
        self.corrupt_gets = 0
        self.deletes = 0
        self.recoveries = 0
        self.last_recovery_seconds = 0.0

    # ------------------------------------------------------------------
    def _check_up(self) -> None:
        if not self.is_up:
            raise NodeDownError(f"node {self.name} is down")

    def put_batch(self, items) -> None:
        """Store a batch of ``(key, version, value)`` triples in one
        engine call."""
        self._check_up()
        self.engine.put_batch(items)
        self.puts += len(items)

    def get(self, key: bytes, version: int) -> Optional[bytes]:
        """A :meth:`get_batch` of one: the value, or ``None``."""
        return self.get_batch([(key, version)])[0]

    def get_batch(self, items) -> list:
        """Fetch a batch of ``(key, version)`` values in input order, in
        one engine call.  A missing item reads as ``None`` rather than
        raising, so the group layer can fail over individual keys while
        the rest of the batch stands.
        """
        self._check_up()
        self.gets += len(items)
        return self.engine.get_batch(items)

    def delete_batch(self, items) -> None:
        """Delete a batch of ``(key, version)`` pairs in one engine
        call."""
        self._check_up()
        self.engine.delete_batch(items)
        self.deletes += len(items)

    def retire_version(self, version: int) -> int:
        """Evict ``version`` in one engine call; returns the records
        deleted."""
        self._check_up()
        deleted = self.engine.retire_version(version)
        self.deletes += deleted
        return deleted

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Power-fail the node: volatile state is gone."""
        self.is_up = False

    def recover(self) -> float:
        """Bring the node back; returns simulated recovery seconds.

        The engine restarts itself: a QinDB node rebuilds its memtable
        and GC table from its AOFs (the paper's stated recovery cost), an
        LSM node replays its WAL (its SSTable metadata persists in a
        manifest).
        """
        if self.is_up:
            return 0.0
        device = self.engine.device
        started = device.now
        self.engine = self.engine.restart()
        self.is_up = True
        self.recoveries += 1
        self.last_recovery_seconds = device.now - started
        return self.last_recovery_seconds
