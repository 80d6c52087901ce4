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

A unit keeps what it is given **by reference**, one :class:`Extent` per
append: the appender's own piece list, its column of entry starts, and
the range of entries appended.  An append of framed records
(:meth:`NativeUnit.append_frames`) is one extent over the batch's shared
pieces and starts, so a replica holds nothing per frame: a record body
and head built once for the fleet are one object on every replica in
every data center, and so are the columns that say where they lie.
Page padding of one length is one shared extent too (:func:`_pad`), so
replicas that appended alike hold extents equal by identity, not just
by content.  Any other append (checkpoint rows) is an extent over a
small list and column of its own.  A read finds its extent with one
bisection over the extents' offsets and its entry with one more over
their starts.  Only what a crash cuts (``discard_unprogrammed``) or
media damage (``corrupt``) changes is copied into an extent of its own,
so a flipped bit lands on one replica.  Programs, reads and their device
time are page arithmetic on offsets, never on the pieces, so sharing
changes no charge.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Sequence
from weakref import WeakValueDictionary

from repro.errors import OutOfRangeError, StorageError
from repro.ssd.device import Block, SimulatedSSD

#: the most a unit holds (a bound no segment comes near, so a length
#: gone wrong is a typed error, not a runaway unit)
MAX_UNIT_BYTES = 0xFFFFFFFF


class Extent(NamedTuple):
    """What one append put in a unit: entries ``first .. stop - 1`` of a
    column, back-to-back from unit offset ``offset``.

    Entry ``i`` is the ``stride`` pieces from ``pieces[stride * i]``
    (a frame's head and body, or one chunk) and spans ``starts[i] ..
    starts[i + 1]`` relative to the column, which may hold entries of
    other appends: a batch's pieces and starts are the same objects in
    every unit that appended any of its frames.  Shared, so never mutated.
    """

    offset: int
    pieces: List[bytes]
    starts: array
    first: int
    stop: int
    stride: int


def _chunks(chunks: Sequence[bytes]) -> tuple:
    """The extent fields of generic chunks: each chunk one entry."""
    pieces = list(chunks)
    starts = array("q", accumulate(map(len, pieces), initial=0))
    return pieces, starts, 0, len(pieces), 1


class _Pad(list):
    """The one zero piece of a page pad, and its column of starts."""

    __slots__ = ("starts", "__weakref__")


#: pad length -> the pad every unit appends for it; an entry lives while
#: some unit holds that pad
_PADS: "WeakValueDictionary[int, _Pad]" = WeakValueDictionary()


class Contents:
    """What a unit holds, as a chain with one node per extent: the node
    after ``prev`` for an extent is found by that extent's identity (its
    pieces and starts objects and its range), so units that appended the
    very same extents in the same order — replicas that stored alike —
    hold the very same node.  A node holds its extent's pieces and starts
    and the node before it, so no identity in the key that found it is
    reused while it lives; it lives while a unit holds it or a later
    node, and goes when the last is erased or cut back past it.

    ``derived`` is for a layer above: what it makes of these contents
    alone (an AOF keeps the verified walk of its frames), made once for
    every unit that holds them.
    """

    __slots__ = ("prev", "held", "derived", "__weakref__")

    def __init__(self, prev: "Contents | None", held: tuple) -> None:
        self.prev = prev
        self.held = held
        self.derived = None

    def then(
        self, pieces: List[bytes], starts: array, first: int, stop: int,
        stride: int,
    ) -> "Contents":
        """The node of these contents followed by one more extent."""
        key = (id(self), id(pieces), id(starts), first, stop, stride)
        node = _CONTENTS.get(key)
        if node is None:
            node = _CONTENTS[key] = Contents(self, (pieces, starts))
        return node


#: (the node before, the extent's identity) -> the node after it; an
#: entry lives while its node does
_CONTENTS: "WeakValueDictionary[tuple, Contents]" = WeakValueDictionary()
#: page size -> the contents of every empty unit of that geometry
_EMPTY: Dict[int, Contents] = {}


def _pad(length: int) -> _Pad:
    """The shared pad of ``length`` zero bytes."""
    pad = _PADS.get(length)
    if pad is None:
        pad = _PADS[length] = _Pad((bytes(length),))
        pad.starts = array("q", (0, length))
    return pad


class NativeUnit:
    """A block-aligned, append-only storage unit on the raw device."""

    def __init__(self, device: SimulatedSSD, tag: str) -> None:
        self._device = device
        self.tag = tag
        self._blocks: List[Block] = []
        self._page_size = device.geometry.page_size
        #: what the unit holds (pads included), one extent per append,
        #: and the offset each begins at for bisection; read-only
        self.extents: List[Extent] = []
        self._offsets: List[int] = []
        #: the chain node of ``extents``, shared with every unit that
        #: appended the same; None once erased
        self.contents: Optional[Contents] = _EMPTY.get(self._page_size)
        if self.contents is None:
            self.contents = _EMPTY[self._page_size] = Contents(None, ())
        self._size = 0
        self._programmed_pages = 0
        self._erased = False
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
        the programmed page boundary.  The extent the cut falls in keeps
        its whole entries before it, and the entry it splits keeps its
        programmed front as an extent of plain bytes."""
        cut = self._programmed_pages * self._page_size
        if cut == self._size:
            return
        held, begin, _stride, _after = self._split(cut)
        front, room = [], cut - begin
        for piece in held:
            if room <= 0:
                break
            front.append(piece[:room])
            room -= len(piece)
        if front:
            self._keep(*_chunks(front))

    def _split(self, offset: int):
        """Cut the unit back to the start of the entry holding
        ``offset``: drop the extent holding it and every later one,
        keeping that extent's entries before it.  Returns the entry's
        pieces (a new list), where it began, its stride, and what
        followed it, as :meth:`_keep` arguments."""
        index = bisect_right(self._offsets, offset) - 1
        at, pieces, starts, first, stop, stride = self.extents[index]
        shift = at - starts[first]
        entry = bisect_right(starts, offset - shift, first, stop) - 1
        after = [extent[1:] for extent in self.extents[index + 1 :]]
        if entry + 1 < stop:
            after.insert(0, (pieces, starts, entry + 1, stop, stride))
        for _extent in self.extents[index:]:
            self.contents = self.contents.prev
        del self.extents[index:], self._offsets[index:]
        self._size = at
        if entry > first:
            self._keep(pieces, starts, first, entry, stride)
        held = pieces[stride * entry : stride * entry + stride]
        return held, starts[entry] + shift, stride, after

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
        self._keep(*_chunks([bytes(data)]))
        while self._programmed_pages < self._size // self._page_size:
            self._program(1)
        return offset

    def append_many(self, chunks: Sequence[bytes]) -> int:
        """Append ``chunks`` back-to-back, as one extent; returns the
        first chunk's offset (each later chunk begins where the one
        before it ends).

        The chunks are kept, not copied, so they must be ``bytes``.  Every
        run of full pages within one block is programmed with a *single*
        multi-page command — the batch's device-time saving.  Byte layout
        and pages programmed are those of chunk-at-a-time :meth:`append`;
        only the command count (and the charged time) shrinks.
        """
        self._check_live()
        offset = self._size
        self._keep(*_chunks(chunks))
        self._program_full()
        return offset

    def append_frames(self, frames, first: int, stop: int) -> int:
        """Append frames ``first .. stop - 1`` of ``frames`` (a
        :class:`~repro.qindb.records.Frames`: ``pieces`` a head then a
        body per frame, ``starts`` where each frame begins) as one
        extent over those shared columns; returns where frame ``first``
        begins.  Nothing per frame is built or kept.  Programmed as
        :meth:`append_many` of the frames' pieces."""
        self._check_live()
        offset = self._size
        self._keep(frames.pieces, frames.starts, first, stop, 2)
        self._program_full()
        return offset

    def flush(self) -> None:
        """Pad and program any buffered partial page.

        Padding becomes part of the logical stream so offsets stay
        stable: subsequent appends begin on the next page boundary.
        """
        self._check_live()
        tail = self._size % self._page_size
        if not tail:
            return
        pad = _pad(self._page_size - tail)
        self._keep(pad, pad.starts, 0, 1, 1)
        self._program(1)

    def _keep(
        self, pieces: List[bytes], starts: array, first: int, stop: int,
        stride: int,
    ) -> None:
        """Hold entries ``first .. stop - 1`` of a column as the next
        extent; an append past :data:`MAX_UNIT_BYTES` is refused whole."""
        nbytes = starts[stop] - starts[first]
        if not nbytes:
            return
        if self._size + nbytes > MAX_UNIT_BYTES:
            raise StorageError(
                f"native unit {self.tag!r} would exceed {MAX_UNIT_BYTES} bytes"
            )
        self.extents.append(
            Extent(self._size, pieces, starts, first, stop, stride)
        )
        self.contents = self.contents.then(pieces, starts, first, stop, stride)
        self._offsets.append(self._size)
        self._size += nbytes

    def _program_full(self) -> None:
        """Program every full page still buffered, one multi-page
        command per run of pages within a block."""
        npages_left = self._size // self._page_size - self._programmed_pages
        while npages_left:
            room = self._per_block - self._current_block().write_ptr
            npages = npages_left if npages_left < room else room
            self._program(npages)
            npages_left -= npages

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
        """The pieces holding one range, uncharged (see :meth:`read_many`):
        an entry read whole is its pieces as appended."""
        end = offset + length
        if not 0 <= offset <= end <= self._size:
            raise OutOfRangeError(
                f"read [{offset}, {end}) outside [0, {self._size}) of native "
                f"unit {self.tag!r}"
            )
        if not length:
            return []
        extents = self.extents
        index = bisect_right(self._offsets, offset) - 1
        at, pieces, starts, first, stop, stride = extents[index]
        shift = at - starts[first]  # unit offset of the column's zero
        entry = bisect_right(starts, offset - shift, first, stop) - 1
        begin = starts[entry] + shift
        if begin == offset and starts[entry + 1] + shift == end:
            return pieces[stride * entry : stride * entry + stride]
        # the piece holding ``offset``, then whole pieces to ``end``
        piece = stride * entry
        while begin + len(pieces[piece]) <= offset:
            begin += len(pieces[piece])
            piece += 1
        parts: List[bytes] = []
        while end - shift > starts[stop]:  # runs past this extent
            parts += pieces[piece : stride * stop]
            index += 1
            at, pieces, starts, first, stop, stride = extents[index]
            shift = at - starts[first]
            entry, piece = first, stride * first
        after = bisect_left(starts, end - shift, entry + 1, stop)
        last, finish = stride * after, starts[after] + shift
        while finish - len(pieces[last - 1]) >= end:
            last -= 1
            finish -= len(pieces[last])
        parts += pieces[piece:last]
        if begin != offset or finish != end:
            # the range begins or ends inside a piece: copy its part
            parts[-1] = parts[-1][: len(parts[-1]) - (finish - end)]
            parts[0] = parts[0][offset - begin :]
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
        is damaged where it waits.  The extent holding it is split around
        the damaged entry, which becomes an extent of its own holding a
        damaged copy of the one piece: the other holders of the entry's
        pieces and columns (replicas elsewhere) keep clean bytes.
        """
        self._check_live()
        if not 0 <= offset < self._size:
            raise OutOfRangeError(
                f"corrupt at {offset}: outside [0, {self._size}) of native "
                f"unit {self.tag!r}"
            )
        if not 0 < mask < 256:
            raise StorageError(f"corrupt mask must be in [1, 255], got {mask}")
        held, begin, stride, after = self._split(offset)
        position, piece = offset - begin, 0
        while position >= len(held[piece]):
            position -= len(held[piece])
            piece += 1
        damaged = bytearray(held[piece])
        damaged[position] ^= mask
        held[piece] = bytes(damaged)
        self._keep(held, array("q", (0, sum(map(len, held)))), 0, 1, stride)
        for extent in after:
            self._keep(*extent)

    def erase(self) -> None:
        """Erase every block this unit owns and drop its contents."""
        self._check_live()
        for block in self._blocks:
            self._device.erase_block(block.block_id)
        self._blocks, self.extents, self._offsets = [], [], []
        self.contents = None
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
