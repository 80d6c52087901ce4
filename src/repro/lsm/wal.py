"""Write-ahead log for the LSM engine's memtable.

Every mutation is framed (same record framing as the AOFs, so corruption
checks are shared) and appended to a log file before the memtable changes.
After a memtable flush the log is truncated by deleting and recreating the
file — its pages are TRIMmed on the device, which is where short-lived WAL
pages start costing the device GC migrations when they shared blocks with
long-lived SSTable pages.
"""

from __future__ import annotations

from typing import Iterator

from repro.qindb.records import Record, encode_record, scan_records
from repro.ssd.files import BlockFileSystem, SSDFile


class WriteAheadLog:
    """An append-only mutation log on the conventional filesystem path."""

    def __init__(self, fs: BlockFileSystem, name: str = "wal.log") -> None:
        self._fs = fs
        self._name = name
        #: a log that survived a crash is reattached, not recreated
        self._file: SSDFile = (
            fs.open(name) if fs.exists(name) else fs.create(name)
        )
        self.bytes_written = 0

    @property
    def size(self) -> int:
        """Current log length in bytes."""
        return self._file.size

    def append(self, record: Record) -> None:
        """Durably log one mutation."""
        encoded = encode_record(record)
        self._file.append(encoded)
        self.bytes_written += len(encoded)

    def replay(self) -> Iterator[Record]:
        """Decode every logged record in append order (crash recovery)."""
        image = self._file.read_all()
        for _offset, record in scan_records(image):
            yield record

    def reset(self) -> None:
        """Truncate the log after its memtable reached an SSTable."""
        self._fs.delete(self._name)
        self._file = self._fs.create(self._name)
