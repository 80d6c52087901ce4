"""The SSD's native programming interface: host-managed, block-aligned.

This models the open-channel-style path the paper uses for QinDB: the host
allocates whole erase blocks, fills them with strictly sequential page
programs, and erases them explicitly.  The device never remaps or migrates
pages on this path, so hardware write amplification is 1.0 by construction
— "GC only targets invalid blocks, eliminating write amplification".

A :class:`NativeUnit` is a growable chain of blocks with an append cursor
and a page-fill buffer: bytes accumulate until a page is full, then the
page is programmed.  ``flush`` pads and programs the final partial page
(padding wastes the tail of that page, exactly as a real block-aligned
writer would).
"""

from __future__ import annotations

from typing import List

from repro.errors import OutOfRangeError, StorageError
from repro.ssd.device import Block, SimulatedSSD


class NativeUnit:
    """A block-aligned, append-only storage unit on the raw device."""

    def __init__(self, device: SimulatedSSD, tag: str) -> None:
        self._device = device
        self.tag = tag
        self._blocks: List[Block] = []
        self._data = bytearray()  # logical contents, including pad bytes
        self._programmed_pages = 0
        self._pending = bytearray()  # bytes not yet filling a whole page
        self._erased = False

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Appended payload bytes (programmed + still buffered)."""
        return len(self._data) + len(self._pending)

    @property
    def page_size(self) -> int:
        """Device page size (padding granularity of this unit)."""
        return self._device.geometry.page_size

    def discard_unprogrammed(self) -> None:
        """Crash semantics: drop bytes that never reached flash."""
        self._pending.clear()
        self._data = self._data[
            : self._programmed_pages * self._device.geometry.page_size
        ]

    @property
    def occupied_bytes(self) -> int:
        """Block-granular footprint on the device."""
        return len(self._blocks) * self._device.geometry.block_size

    def _check_live(self) -> None:
        if self._erased:
            raise StorageError(f"native unit {self.tag!r} was erased")

    # ------------------------------------------------------------------
    def append(self, data: bytes) -> int:
        """Append ``data``; returns the logical offset it begins at.

        Whole pages are programmed as they fill; a trailing partial page
        stays in the fill buffer until more data arrives or :meth:`flush`.
        """
        self._check_live()
        offset = self.size
        if not data:
            return offset
        page_size = self._device.geometry.page_size
        self._pending.extend(data)
        while len(self._pending) >= page_size:
            page = self._pending[:page_size]
            del self._pending[:page_size]
            self._program_page(page)
        return offset

    def append_many(self, chunks: List[bytes]) -> int:
        """Append ``chunks`` back-to-back; returns the first chunk's offset
        (each later chunk begins where the one before it ends).

        The batched write path: all chunks land in the fill buffer first,
        then every run of full pages within one block is programmed with a
        *single* multi-page command — contiguous block-aligned appends
        coalesce into one device write instead of one per page, which is
        where the batch's device-time saving comes from.  Byte layout and
        pages programmed are identical to chunk-at-a-time :meth:`append`;
        only the command count (and therefore the charged time) shrinks.
        """
        self._check_live()
        start = self.size
        # One join for the payload instead of per-chunk buffer ops.  The
        # full-page prefix of the joined blob lands in ``_data`` with a
        # single extend (memoryview slices avoid intermediate copies);
        # only the trailing partial page round-trips through ``_pending``.
        if self._pending:
            blob = bytes(self._pending) + b"".join(chunks)
        else:
            blob = b"".join(chunks)
        page_size = self._device.geometry.page_size
        nfull = len(blob) - len(blob) % page_size
        if nfull:
            per_block = self._device.geometry.pages_per_block
            npages_left = nfull // page_size
            while npages_left:
                block = self._current_block()
                room = per_block - block.write_ptr
                npages = npages_left if npages_left < room else room
                self._device.program(block.block_id, npages, source="host")
                self._programmed_pages += npages
                npages_left -= npages
            if nfull == len(blob):
                self._data += blob
            else:
                self._data += memoryview(blob)[:nfull]
        self._pending = bytearray(memoryview(blob)[nfull:])
        return start

    def flush(self) -> None:
        """Pad and program any buffered partial page."""
        self._check_live()
        if not self._pending:
            return
        page_size = self._device.geometry.page_size
        page = bytes(self._pending) + b"\x00" * (page_size - len(self._pending))
        self._pending.clear()
        self._program_page(page)
        # Padding becomes part of the logical stream so offsets stay
        # stable: subsequent appends begin on the next page boundary.
        # (_program_page already appended the padded page to _data.)

    def _program_page(self, page) -> None:
        """Program one page-sized chunk (``bytes`` or ``bytearray``)."""
        block = self._current_block()
        self._device.program(block.block_id, 1, source="host")
        self._data.extend(page)
        self._programmed_pages += 1

    def _current_block(self) -> Block:
        if self._blocks:
            block = self._blocks[-1]
            if block.write_ptr < self._device.geometry.pages_per_block:
                return block
        block = self._device.allocate_block(f"native:{self.tag}")
        self._blocks.append(block)
        return block

    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at ``offset``, charging page reads.

        Reads may cover buffered (not yet programmed) bytes; only the
        programmed pages touched are charged to the device.
        """
        self._check_live()
        if offset < 0 or length < 0:
            raise OutOfRangeError(f"bad read range: offset={offset}, len={length}")
        end = offset + length
        if end > self.size:
            raise OutOfRangeError(
                f"read [{offset}, {end}) past end ({self.size}) of "
                f"native unit {self.tag!r}"
            )
        if length == 0:
            return b""
        page_size = self._device.geometry.page_size
        per_block = self._device.geometry.pages_per_block
        first_page = offset // page_size
        last_page = (end - 1) // page_size
        # Charge one striped read per block touched (contiguous pages in a
        # block transfer together, like a real multi-page read command).
        page = first_page
        while page <= last_page and page < self._programmed_pages:
            block_index = page // per_block
            block_end = min(
                (block_index + 1) * per_block - 1,
                last_page,
                self._programmed_pages - 1,
            )
            npages = block_end - page + 1
            self._device.read(
                self._blocks[block_index].block_id, npages, source="host"
            )
            page = block_end + 1
        return self._slice(offset, end)

    def read_many(self, ranges: List[tuple]) -> List[bytes]:
        """Read several ``(offset, length)`` ranges as one batched command
        set; returns the bytes of each range, in input order.

        The batched read path: the union of programmed pages the ranges
        touch is computed first, so a page shared by several ranges
        (records packed into the same page, or one record requested
        repeatedly within a batch) transfers once; contiguous runs of
        pages within a block then issue as single striped multi-page
        commands — the read-side mirror of :meth:`append_many`'s program
        coalescing.  The bytes returned per range are identical to
        per-range :meth:`read` calls, and a single-range batch charges
        exactly what :meth:`read` would; only the command count (and the
        charged time) shrinks when ranges share or neighbour pages.
        """
        self._check_live()
        size = self.size
        page_size = self._device.geometry.page_size
        programmed = self._programmed_pages
        pages: set = set()
        for offset, length in ranges:
            if offset < 0 or length < 0:
                raise OutOfRangeError(
                    f"bad read range: offset={offset}, len={length}"
                )
            end = offset + length
            if end > size:
                raise OutOfRangeError(
                    f"read [{offset}, {end}) past end ({size}) of "
                    f"native unit {self.tag!r}"
                )
            if length == 0:
                continue
            last = (end - 1) // page_size
            if last >= programmed:
                last = programmed - 1
            pages.update(range(offset // page_size, last + 1))
        per_block = self._device.geometry.pages_per_block
        run_start: int | None = None
        previous = -2
        for page in sorted(pages):
            if run_start is None:
                run_start = page
            elif page != previous + 1 or page % per_block == 0:
                # The run broke (gap, or a block boundary: multi-page
                # commands stripe within one block, as in :meth:`read`).
                self._device.read(
                    self._blocks[run_start // per_block].block_id,
                    previous - run_start + 1,
                    source="host",
                )
                run_start = page
            previous = page
        if run_start is not None:
            self._device.read(
                self._blocks[run_start // per_block].block_id,
                previous - run_start + 1,
                source="host",
            )
        return [
            self._slice(offset, offset + length) for offset, length in ranges
        ]

    def _slice(self, offset: int, end: int) -> bytes:
        """Stitch ``[offset, end)`` from the programmed and pending
        regions (no device charge; the caller accounted the pages).

        The programmed part is copied once, through a view: slicing the
        ``bytearray`` first would copy it twice, a whole segment for GC
        or recovery.
        """
        if end == offset:
            return b""
        data_len = len(self._data)
        data = memoryview(self._data)
        if end <= data_len:
            return bytes(data[offset:end])
        if offset >= data_len:
            return bytes(self._pending[offset - data_len : end - data_len])
        return bytes(data[offset:]) + bytes(self._pending[: end - data_len])

    def corrupt(self, offset: int, mask: int) -> None:
        """Flip the bits of ``mask`` in the stored byte at ``offset``.

        Media damage: the one way anything damages stored bytes.  No
        device time is charged and nothing is re-programmed, so only a
        later read's checks can notice.  A byte still in the fill buffer
        is damaged where it waits.
        """
        self._check_live()
        if not 0 <= offset < self.size:
            raise OutOfRangeError(
                f"corrupt at {offset}: outside [0, {self.size}) of native "
                f"unit {self.tag!r}"
            )
        if not 0 < mask < 256:
            raise StorageError(f"corrupt mask must be in [1, 255], got {mask}")
        data_len = len(self._data)
        if offset < data_len:
            self._data[offset] ^= mask
        else:
            self._pending[offset - data_len] ^= mask

    def erase(self) -> None:
        """Erase every block this unit owns and drop its contents."""
        self._check_live()
        for block in self._blocks:
            self._device.erase_block(block.block_id)
        self._blocks = []
        self._data = bytearray()
        self._pending = bytearray()
        self._programmed_pages = 0
        self._erased = True


class NativeBlockInterface:
    """Factory for block-aligned storage units on one device."""

    def __init__(self, device: SimulatedSSD) -> None:
        self.device = device
        self._sequence = 0
        self._live_units: int = 0

    def open_unit(self, tag: str = "") -> NativeUnit:
        """Create a new empty unit (an AOF segment, a checkpoint, ...)."""
        self._sequence += 1
        label = tag or f"unit-{self._sequence}"
        return NativeUnit(self.device, label)
