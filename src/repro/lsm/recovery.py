"""LSM crash recovery: manifest + WAL replay.

LevelDB persists its level structure in a MANIFEST and replays the WAL
into a fresh memtable on startup.  Our SSTable *files* survive on the
simulated filesystem; their in-memory readers (sparse index + bloom) are
the part a real LevelDB would rebuild cheaply from the table footers.
This module models that: :func:`crash` snapshots the manifest (which
tables sit on which level) and drops the memtable; :func:`recover`
reattaches the tables and replays the surviving WAL.

The asymmetry against QinDB is the paper's point: the LSM recovers fast
(replay a few MB of WAL) but pays compaction forever; QinDB pays a full
AOF scan at recovery but appends forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.lsm.engine import LSMConfig, LSMEngine
from repro.lsm.skiplist import SkipListMap
from repro.lsm.sstable import SSTable
from repro.ssd.files import BlockFileSystem


@dataclass
class Manifest:
    """What survives an LSM crash: files, levels, and the WAL."""

    fs: BlockFileSystem
    #: (level, table) pairs — table readers persist (footer metadata)
    tables: List[Tuple[int, SSTable]]
    config: LSMConfig
    sequence: int


def crash(engine: LSMEngine) -> Manifest:
    """Power-fail the engine: the memtable vanishes; disk remains."""
    tables = [
        (level, table)
        for level in range(engine.levels.max_levels)
        for table in engine.levels.level(level)
    ]
    manifest = Manifest(
        fs=engine.fs,
        tables=tables,
        config=engine.config,
        sequence=engine._sequence,
    )
    engine._closed = True
    return manifest


def recover(manifest: Manifest) -> LSMEngine:
    """Rebuild an engine from the manifest and replay the WAL.

    The recovered memtable holds exactly the mutations that were logged
    but not yet flushed; everything older is already in the SSTables.
    """
    engine = LSMEngine.__new__(LSMEngine)
    engine.config = manifest.config
    engine.fs = manifest.fs
    engine.ftl = manifest.fs.ftl
    engine.device = manifest.fs.ftl.device

    from repro.lsm.compaction import Compactor
    from repro.lsm.levels import LevelState
    from repro.lsm.wal import WriteAheadLog

    engine.levels = LevelState(max_levels=manifest.config.max_levels)
    for level, table in manifest.tables:
        engine.levels.add(level, table)
    engine.compactor = Compactor(
        fs=engine.fs,
        levels=engine.levels,
        l0_trigger=manifest.config.l0_compaction_trigger,
        level1_max_bytes=manifest.config.level1_max_bytes,
        multiplier=manifest.config.level_size_multiplier,
        max_file_bytes=manifest.config.max_file_bytes,
        index_interval=manifest.config.index_interval,
    )
    # A fresh (cold) block cache: RAM contents did not survive the crash.
    from repro.lsm.blockcache import BlockCache

    engine.block_cache = (
        BlockCache(manifest.config.block_cache_bytes)
        if manifest.config.block_cache_bytes > 0
        else None
    )
    engine.compactor.block_cache = engine.block_cache
    for _level, table in manifest.tables:
        table.cache = engine.block_cache
    # Reattach the surviving WAL file and replay it.
    engine.wal = WriteAheadLog.__new__(WriteAheadLog)
    engine.wal._fs = manifest.fs
    engine.wal._name = "wal.log"
    engine.wal._file = manifest.fs.open("wal.log")
    engine.wal.bytes_written = 0

    engine._memtable = SkipListMap(seed=manifest.config.memtable_seed)
    engine._memtable_bytes = 0
    for record in engine.wal.replay():
        engine._memtable.insert((record.key, record.version), record)
        engine._memtable_bytes += record.encoded_size

    engine._sequence = manifest.sequence
    engine.user_bytes_written = 0
    engine.user_bytes_read = 0
    engine.flush_bytes_written = 0
    engine.flush_count = 0
    engine._closed = False
    return engine
