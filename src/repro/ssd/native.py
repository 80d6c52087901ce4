"""The SSD's native programming interface: host-managed, block-aligned.

This models the open-channel-style path the paper uses for QinDB: the host
allocates whole erase blocks, fills them with strictly sequential page
programs, and erases them explicitly.  The device never remaps or migrates
pages on this path, so hardware write amplification is 1.0 by construction
— "GC only targets invalid blocks, eliminating write amplification".

A :class:`NativeUnit` is a growable chain of blocks with an append cursor.
Whole pages are programmed as appends fill them; the last, partial page
waits in the fill buffer until ``flush`` pads and programs it (padding
wastes its tail, exactly as a real block-aligned writer would).

A unit keeps what it is given **by reference**: every appended chunk is an
immutable piece, with an ``array('q')`` of piece end offsets and, per
page, the piece holding the page's first byte.  A record body built once
for a slice is one object on every replica in every data center.  Only a
piece a crash cuts (``discard_unprogrammed``) or media damage
(``corrupt``) changes is copied, so a flipped bit lands on one replica.
Programs, reads and their device time are page arithmetic on offsets,
never on the pieces, so sharing changes no charge.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import accumulate
from typing import List, Sequence

from repro.errors import OutOfRangeError, StorageError
from repro.ssd.device import Block, SimulatedSSD


class NativeUnit:
    """A block-aligned, append-only storage unit on the raw device."""

    def __init__(self, device: SimulatedSSD, tag: str) -> None:
        self._device = device
        self.tag = tag
        self._blocks: List[Block] = []
        #: the contents (pads included) as immutable pieces, the offset
        #: each ends at, and per page begun the piece holding its first byte
        self._pieces: List[bytes] = []
        self._ends = array("q")
        self._page_first = array("q")
        self._size = 0
        self._programmed_pages = 0
        self._erased = False
        self._page_size = device.geometry.page_size
        self._per_block = device.geometry.pages_per_block

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Appended payload bytes (programmed + still buffered)."""
        return self._size

    @property
    def page_size(self) -> int:
        """Device page size (padding granularity of this unit)."""
        return self._page_size

    def discard_unprogrammed(self) -> None:
        """Crash semantics: drop bytes that never reached flash — cut at
        the programmed page boundary, a piece it splits keeping its
        programmed front as plain bytes."""
        cut = self._programmed_pages * self._page_size
        if cut == self._size:
            return
        index = bisect_right(self._ends, cut)
        start = self._ends[index - 1] if index else 0
        split = self._pieces[index][: cut - start] if cut > start else None
        del self._pieces[index:], self._ends[index:]
        del self._page_first[self._programmed_pages :]
        if split is not None:
            self._pieces.append(split)
            self._ends.append(cut)
        self._size = cut

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

        Whole pages are programmed as they fill, one command per page; a
        trailing partial page stays buffered until more data or :meth:`flush`.
        """
        self._check_live()
        offset = self._size
        if not data:
            return offset
        self._add([bytes(data)])
        while self._programmed_pages < self._size // self._page_size:
            self._program(1)
        return offset

    def append_many(self, chunks: Sequence[bytes]) -> int:
        """Append ``chunks`` back-to-back; returns the first chunk's offset
        (each later chunk begins where the one before it ends).

        The chunks are kept, not copied, so they must be ``bytes``.  Every
        run of full pages within one block is programmed with a *single*
        multi-page command — the batch's device-time saving.  Byte layout
        and pages programmed are those of chunk-at-a-time :meth:`append`;
        only the command count (and the charged time) shrinks.
        """
        self._check_live()
        start = self._size
        self._add(chunks)
        npages_left = self._size // self._page_size - self._programmed_pages
        while npages_left:
            room = self._per_block - self._current_block().write_ptr
            npages = npages_left if npages_left < room else room
            self._program(npages)
            npages_left -= npages
        return start

    def flush(self) -> None:
        """Pad and program any buffered partial page.

        Padding becomes part of the logical stream so offsets stay
        stable: subsequent appends begin on the next page boundary.
        """
        self._check_live()
        tail = self._size % self._page_size
        if not tail:
            return
        self._add([bytes(self._page_size - tail)])
        self._program(1)

    def _add(self, pieces: Sequence[bytes]) -> None:
        """Keep ``pieces`` at the end of the stream and index the pages
        they begin."""
        ends = self._ends
        new_ends = accumulate(map(len, pieces), initial=self._size)
        next(new_ends)  # the old end
        ends.extend(new_ends)
        self._pieces += pieces
        self._size = ends[-1] if ends else 0
        page_size = self._page_size
        page_first = self._page_first
        page = len(page_first)
        first = page_first[-1] if page_first else 0
        while page * page_size < self._size:
            first = bisect_right(ends, page * page_size, first)
            page_first.append(first)
            page += 1

    def _program(self, npages: int) -> None:
        """Program the next ``npages`` pages, all in the current block."""
        block = self._current_block()
        self._device.program(block.block_id, npages, source="host")
        self._programmed_pages += npages

    def _current_block(self) -> Block:
        if self._blocks:
            block = self._blocks[-1]
            if block.write_ptr < self._per_block:
                return block
        block = self._device.allocate_block(f"native:{self.tag}")
        self._blocks.append(block)
        return block

    # ------------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        """The bytes at ``[offset, offset + length)``: a :meth:`read_many`
        of one range, its pieces joined."""
        return b"".join(self.read_many([(offset, length)])[0])

    def read_many(self, ranges: Sequence[tuple]) -> List[List[bytes]]:
        """Read ``(offset, length)`` ranges as one command set; returns,
        per range in input order, the pieces that hold it — whole pieces
        as appended (uncopied), the first and last cut to the range.

        Only programmed pages are charged (buffered bytes read free), and
        the union of them once: a page several ranges share transfers
        once, and each run of pages within a block is one striped
        multi-page command — the mirror of :meth:`append_many`.
        """
        self._check_live()
        page_size = self._page_size
        if len(ranges) == 1:  # one range: no span list, no union
            offset, length = ranges[0]
            parts = self._cut(offset, length)
            if length:
                last = offset + length - 1
                self._charge(offset // page_size, last // page_size)
            return [parts]
        cut = [self._cut(offset, length) for offset, length in ranges]
        spans = sorted(
            (offset // page_size, (offset + length - 1) // page_size)
            for offset, length in ranges
            if length
        )
        if spans:
            # the union of the spans' pages, as runs
            run_first, run_last = spans[0]
            for first, last in spans:
                if first > run_last + 1:
                    self._charge(run_first, run_last)
                    run_first, run_last = first, last
                elif last > run_last:
                    run_last = last
            self._charge(run_first, run_last)
        return cut

    def _cut(self, offset: int, length: int) -> List[bytes]:
        """The pieces holding one range, uncharged (see :meth:`read_many`)."""
        end = offset + length
        if not 0 <= offset <= end <= self._size:
            raise OutOfRangeError(
                f"read [{offset}, {end}) outside [0, {self._size}) of native "
                f"unit {self.tag!r}"
            )
        if not length:
            return []
        ends, page_first = self._ends, self._page_first
        # The piece holding ``offset`` lies between the pieces that
        # begin its page and the next: a few entries to bisect.
        page, pages = offset // self._page_size, len(page_first)
        hi = page_first[page + 1] + 1 if page + 1 < pages else len(ends)
        first = last = bisect_right(ends, offset, page_first[page], hi)
        while ends[last] < end:
            last += 1
        parts = self._pieces[first : last + 1]
        start = ends[first] - len(parts[0])
        if start != offset or ends[last] != end:
            # the range begins or ends inside a piece: copy its part
            parts[-1] = parts[-1][: end - ends[last] + len(parts[-1])]
            parts[0] = parts[0][offset - start :]
        return parts

    def _charge(self, first: int, last: int) -> None:
        """Charge the programmed pages of ``first..last``, per block."""
        if last >= self._programmed_pages:
            last = self._programmed_pages - 1
        per_block = self._per_block
        while first <= last:
            block_index = first // per_block
            block_last = (block_index + 1) * per_block - 1
            if block_last > last:
                block_last = last
            self._device.read(
                self._blocks[block_index].block_id,
                block_last - first + 1,
                source="host",
            )
            first = block_last + 1

    def corrupt(self, offset: int, mask: int) -> None:
        """Flip the bits of ``mask`` in the stored byte at ``offset``.

        Media damage: the one way anything damages stored bytes.  No
        device time is charged and nothing is re-programmed, so only a
        later read's checks can notice.  A byte still in the fill buffer
        is damaged where it waits.  The damaged piece is copied first:
        the other holders of it (replicas elsewhere) keep clean bytes.
        """
        self._check_live()
        if not 0 <= offset < self._size:
            raise OutOfRangeError(
                f"corrupt at {offset}: outside [0, {self._size}) of native "
                f"unit {self.tag!r}"
            )
        if not 0 < mask < 256:
            raise StorageError(f"corrupt mask must be in [1, 255], got {mask}")
        index = bisect_right(self._ends, offset)
        damaged = bytearray(self._pieces[index])
        damaged[offset - (self._ends[index] - len(damaged))] ^= mask
        self._pieces[index] = bytes(damaged)

    def erase(self) -> None:
        """Erase every block this unit owns and drop its contents."""
        self._check_live()
        for block in self._blocks:
            self._device.erase_block(block.block_id)
        self._blocks, self._pieces = [], []
        self._ends, self._page_first = array("q"), array("q")
        self._size = self._programmed_pages = 0
        self._erased = True


class NativeBlockInterface:
    """Factory for block-aligned storage units on one device."""

    def __init__(self, device: SimulatedSSD) -> None:
        self.device = device
        self._sequence = 0

    def open_unit(self, tag: str = "") -> NativeUnit:
        """Create a new empty unit (an AOF segment, a checkpoint, ...)."""
        self._sequence += 1
        label = tag or f"unit-{self._sequence}"
        return NativeUnit(self.device, label)
