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
    Everything volatile starts cold — counters, and the block cache: RAM
    contents did not survive the crash.
    """
    fs = manifest.fs
    engine = LSMEngine(fs.ftl.device, manifest.config, fs=fs)
    for level, table in manifest.tables:
        engine.levels.add(level, table)
        table.cache = engine.block_cache
    for record in engine.wal.replay():
        engine._memtable.insert((record.key, record.version), record)
        engine._memtable_bytes += record.encoded_size
    engine._sequence = manifest.sequence
    return engine
