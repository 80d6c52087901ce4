"""QinDB — the paper's per-node storage engine.

QinDB replaces the LSM-tree with:

* a **memtable**: a sorted in-memory index of ``(key, version)`` items, each
  holding the AOF location of the record plus the paper's two flags —
  ``r`` (the value was removed by deduplication) and ``d`` (deleted);
* **append-only files (AOFs)**: fixed-size (64 MB) segments written
  block-aligned through the SSD's native interface, so sorting never
  touches the disk and hardware write amplification is eliminated;
* a **lazy GC**: an in-memory occupancy table per segment; a segment is
  recycled only when its live ratio falls to the threshold (25%), and even
  then the collection is deferred while reads are in flight and free disk
  space remains.  GC re-appends live records *and* dead records that later
  deduplicated versions still resolve to.

The mutated operations (paper Figure 2) are :meth:`QinDB.put` (accepts
value-less deduplicated pairs), :meth:`QinDB.get` (tracebacks through
deduplicated versions to the newest stored value), and :meth:`QinDB.delete`
(flag-only, feeding the GC table).
"""

from repro.qindb.aof import AofManager, AofSegment, RecordLocation
from repro.qindb.checkpoint import Checkpoint
from repro.qindb.engine import QinDB, QinDBConfig
from repro.qindb.gctable import GCTable, SegmentOccupancy
from repro.qindb.memtable import IndexItem, Memtable
from repro.qindb.readcache import RecordCache
from repro.qindb.records import Record, RecordType, decode_record, encode_record

__all__ = [
    "AofManager",
    "AofSegment",
    "Checkpoint",
    "GCTable",
    "IndexItem",
    "Memtable",
    "QinDB",
    "QinDBConfig",
    "Record",
    "RecordCache",
    "RecordLocation",
    "RecordType",
    "SegmentOccupancy",
    "decode_record",
    "encode_record",
]
