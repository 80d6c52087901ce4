"""One Mint storage node: a QinDB (or LSM) engine plus liveness state.

A node can *fail* (its memtable vanishes; only flash survives) and later
*recover* — for QinDB that is the paper's full AOF scan.  While a node is
down every operation raises :class:`~repro.errors.NodeDownError`; the
group layer routes around it.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.errors import KeyNotFoundError, NodeDownError
from repro.lsm.engine import LSMEngine
from repro.qindb.checkpoint import crash as qindb_crash
from repro.qindb.checkpoint import recover as qindb_recover
from repro.qindb.engine import QinDB

Engine = Union[QinDB, LSMEngine]
EngineFactory = Callable[[], Engine]


class StorageNode:
    """A named node wrapping one storage engine."""

    def __init__(self, name: str, engine: Engine) -> None:
        self.name = name
        self.engine: Engine = engine
        self.is_up = True
        self.puts = 0
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

    def put(self, key: bytes, version: int, value: Optional[bytes]) -> None:
        self._check_up()
        self.engine.put(key, version, value)
        self.puts += 1

    def put_batch(self, items) -> None:
        """Store a batch of ``(key, version, value)`` triples.

        QinDB takes the whole batch in one engine call (coalesced
        appends, fingered memtable insertion); engines without a batch
        path (the LSM baseline) fall back to per-key puts — the batch
        API stays uniform either way.
        """
        self._check_up()
        engine_batch = getattr(self.engine, "put_batch", None)
        if engine_batch is not None:
            engine_batch(items)
        else:
            for key, version, value in items:
                self.engine.put(key, version, value)
        self.puts += len(items)

    def get(self, key: bytes, version: int) -> bytes:
        self._check_up()
        self.gets += 1
        return self.engine.get(key, version)

    def get_batch(self, items) -> list:
        """Fetch a batch of ``(key, version)`` values in input order.

        Mirrors :meth:`put_batch`: QinDB takes the whole batch in one
        engine call (deduplicated positioned reads, coalesced multi-page
        commands, amortized CPU); engines without a batch path (the LSM
        baseline) fall back to per-key gets.  A missing item reads as
        ``None`` rather than raising, so the group layer can fail over
        individual keys while the rest of the batch stands.
        """
        self._check_up()
        self.gets += len(items)
        engine_batch = getattr(self.engine, "get_batch", None)
        if engine_batch is not None:
            return engine_batch(items)
        values = []
        for key, version in items:
            try:
                values.append(self.engine.get(key, version))
            except KeyNotFoundError:
                values.append(None)
        return values

    def delete(self, key: bytes, version: int) -> None:
        self._check_up()
        self.engine.delete(key, version)
        self.deletes += 1

    def delete_batch(self, items) -> None:
        """Delete a batch of ``(key, version)`` pairs.

        Mirrors :meth:`put_batch`: QinDB takes the whole batch in one
        engine call (coalesced tombstone appends, one GC/checkpoint
        poll); engines without a batch path fall back to per-key
        deletes.
        """
        self._check_up()
        engine_batch = getattr(self.engine, "delete_batch", None)
        if engine_batch is not None:
            engine_batch(items)
        else:
            for key, version in items:
                self.engine.delete(key, version)
        self.deletes += len(items)

    def exists(self, key: bytes, version: int) -> bool:
        self._check_up()
        return self.engine.exists(key, version)

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Power-fail the node: volatile state is gone."""
        self.is_up = False

    def recover(self) -> float:
        """Bring the node back; returns simulated recovery seconds.

        A QinDB node rebuilds its memtable and GC table by scanning every
        AOF (the paper's stated recovery cost); an LSM node replays its
        WAL (its SSTable metadata persists in a manifest).
        """
        if self.is_up:
            return 0.0
        device = self.engine.device
        started = device.now
        if isinstance(self.engine, QinDB):
            checkpoint = self.engine.latest_checkpoint
            checkpoint_valid = self.engine.checkpoint_valid
            aofs = qindb_crash(self.engine)
            self.engine = qindb_recover(
                aofs,
                config=self.engine.config,
                checkpoint=checkpoint,
                checkpoint_valid=checkpoint_valid,
            )
        else:
            from repro.lsm.recovery import crash as lsm_crash
            from repro.lsm.recovery import recover as lsm_recover

            self.engine = lsm_recover(lsm_crash(self.engine))
        self.is_up = True
        self.recoveries += 1
        self.last_recovery_seconds = device.now - started
        return self.last_recovery_seconds
