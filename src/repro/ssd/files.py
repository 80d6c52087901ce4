"""A flat filesystem over the FTL — the conventional write path.

This is what the LSM baseline writes through: named files whose bytes are
mapped to logical pages, with append, positional read, and delete.  Page
accounting is realistic for flash:

* appending that starts mid-page rewrites that page (read-modify-write at
  the FTL level, so the old physical page is invalidated);
* deleting a file TRIMs its logical pages, telling the device GC those
  pages are dead.

File contents are held in memory so higher layers (SSTable readers, WAL
replay) get real bytes back; all I/O *cost* flows through the FTL and the
device counters.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from repro.errors import DeviceFullError, OutOfRangeError, StorageError
from repro.ssd.ftl import FlashTranslationLayer


class SSDFile:
    """A named, append-mostly byte stream stored on the simulated SSD."""

    def __init__(self, fs: "BlockFileSystem", name: str) -> None:
        self._fs = fs
        self.name = name
        self._lpas: List[int] = []
        self._data = bytearray()
        self._deleted = False

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current length in bytes."""
        return len(self._data)

    @property
    def page_count(self) -> int:
        """Logical pages this file occupies."""
        return len(self._lpas)

    def _check_open(self) -> None:
        if self._deleted:
            raise StorageError(f"file {self.name!r} was deleted")

    # ------------------------------------------------------------------
    def append(self, data: bytes) -> int:
        """Append ``data``; returns the offset it was written at."""
        self._check_open()
        if not data:
            return len(self._data)
        page_size = self._fs.page_size
        offset = len(self._data)
        self._data.extend(data)

        first_page = offset // page_size
        last_page = (len(self._data) - 1) // page_size
        # Grow the lpa list to cover any newly touched pages.
        while len(self._lpas) <= last_page:
            self._lpas.append(self._fs._allocate_lpa())
        # Every touched page is (re)written: the first one is a
        # read-modify-write if the append starts mid-page.
        touched = [self._lpas[p] for p in range(first_page, last_page + 1)]
        self._fs.ftl.write(touched)
        return offset

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``, charging page reads."""
        self._check_open()
        if offset < 0 or length < 0:
            raise OutOfRangeError(f"bad read range: offset={offset}, len={length}")
        if offset + length > len(self._data):
            raise OutOfRangeError(
                f"read [{offset}, {offset + length}) past EOF "
                f"({len(self._data)} bytes) in {self.name!r}"
            )
        if length == 0:
            return b""
        page_size = self._fs.page_size
        first_page = offset // page_size
        last_page = (offset + length - 1) // page_size
        self._fs.ftl.read(self._lpas[first_page : last_page + 1])
        return bytes(self._data[offset : offset + length])

    def read_all(self) -> bytes:
        """Read the whole file."""
        return self.read(0, len(self._data))


class BlockFileSystem:
    """Named files over a page-mapped FTL, with TRIM-on-delete."""

    def __init__(self, ftl: FlashTranslationLayer) -> None:
        self.ftl = ftl
        self.page_size = ftl.device.geometry.page_size
        self._files: Dict[str, SSDFile] = {}
        self._free_lpas: Deque[int] = deque()
        self._next_lpa = 0

    # ------------------------------------------------------------------
    def create(self, name: str) -> SSDFile:
        """Create an empty file (names must be unique)."""
        if name in self._files:
            raise StorageError(f"file exists: {name!r}")
        handle = SSDFile(self, name)
        self._files[name] = handle
        return handle

    def open(self, name: str) -> SSDFile:
        """Look up an existing file."""
        try:
            return self._files[name]
        except KeyError:
            raise StorageError(f"no such file: {name!r}") from None

    def exists(self, name: str) -> bool:
        """Whether a file with this name exists."""
        return name in self._files

    def delete(self, name: str) -> None:
        """Delete a file, TRIMming its pages on the device."""
        handle = self._files.pop(name, None)
        if handle is None:
            raise StorageError(f"no such file: {name!r}")
        self.ftl.trim(handle._lpas)
        self._free_lpas.extend(handle._lpas)
        handle._lpas = []
        handle._data = bytearray()
        handle._deleted = True

    @property
    def used_bytes(self) -> int:
        """Sum of file sizes (logical occupancy)."""
        return sum(f.size for f in self._files.values())

    # ------------------------------------------------------------------
    def _allocate_lpa(self) -> int:
        if self._free_lpas:
            return self._free_lpas.popleft()
        if self._next_lpa >= self.ftl.device.geometry.exported_pages:
            raise DeviceFullError("filesystem exhausted the logical page space")
        lpa = self._next_lpa
        self._next_lpa += 1
        return lpa
