"""Differential test: a :class:`NativeUnit` against a plain-``bytearray``
model of one.

The unit keeps what it is given by reference, one extent per append —
generic chunks, or a range of framed records over the batch's own piece
list and starts; the model copies every byte into one ``bytearray`` and
buffers the partial page apart, as this package's unit did before pieces.
Both run on identical fresh devices through the same random sequence of
every verb, and must agree on every byte read, every offset returned,
every error raised and every device command issued — so the pages
programmed, program commands, pages read, read commands and the clock
are equal too.  Crash cuts, damage, seam and split reads and erases land
in frame extents as in chunk extents.
"""

from __future__ import annotations

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.qindb.records import Frames
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry
from repro.ssd.native import MAX_UNIT_BYTES, NativeBlockInterface

PAGE = 512
PAGES_PER_BLOCK = 4


class BytearrayUnit:
    """The model: programmed bytes in one ``bytearray``, the partial
    page in another, device commands by the same page arithmetic."""

    def __init__(self, device: SimulatedSSD) -> None:
        self.device = device
        self.data = bytearray()
        self.pending = bytearray()
        self.blocks = []
        self.erased = False

    @property
    def size(self) -> int:
        return len(self.data) + len(self.pending)

    def _live(self) -> None:
        if self.erased:
            raise StorageError("erased")

    def _block(self):
        if self.blocks and self.blocks[-1].write_ptr < PAGES_PER_BLOCK:
            return self.blocks[-1]
        self.blocks.append(self.device.allocate_block("model"))
        return self.blocks[-1]

    def _program(self, npages: int) -> None:
        self.device.program(self._block().block_id, npages, source="host")
        self.data += self.pending[: npages * PAGE]
        del self.pending[: npages * PAGE]

    def append(self, data: bytes) -> int:
        self._live()
        offset = self.size
        self.pending += data
        while len(self.pending) >= PAGE:
            self._program(1)
        return offset

    def append_many(self, chunks) -> int:
        self._live()
        offset = self.size
        self.pending += b"".join(chunks)
        npages = len(self.pending) // PAGE
        while npages:
            room = PAGES_PER_BLOCK - self._block().write_ptr
            self._program(min(npages, room))
            npages -= min(npages, room)
        return offset

    def append_frames(self, frames, first, stop) -> int:
        return self.append_many(frames.pieces[2 * first : 2 * stop])

    def flush(self) -> None:
        self._live()
        if self.pending:
            self.pending += bytes(PAGE - len(self.pending))
            self._program(1)

    def discard_unprogrammed(self) -> None:
        self.pending.clear()

    def corrupt(self, offset: int, mask: int) -> None:
        self._live()
        stored = self.data + self.pending
        stored[offset] ^= mask
        self.data, self.pending = stored[: len(self.data)], stored[len(self.data) :]

    def _charge(self, pages) -> None:
        """One striped read per run of programmed pages within a block."""
        run = []
        for page in sorted(pages):
            if page >= len(self.data) // PAGE:
                break
            if run and (page != run[-1] + 1 or page % PAGES_PER_BLOCK == 0):
                self.device.read(
                    self.blocks[run[0] // PAGES_PER_BLOCK].block_id,
                    len(run), source="host",
                )
                run = []
            run.append(page)
        if run:
            self.device.read(
                self.blocks[run[0] // PAGES_PER_BLOCK].block_id,
                len(run), source="host",
            )

    def _pages(self, offset: int, length: int):
        if not length:
            return set()
        return set(range(offset // PAGE, (offset + length - 1) // PAGE + 1))

    def read(self, offset: int, length: int) -> bytes:
        self._live()
        self._charge(self._pages(offset, length))
        return bytes((self.data + self.pending)[offset : offset + length])

    def read_many(self, ranges):
        """Each range's bytes, as one piece."""
        self._live()
        pages = set()
        for offset, length in ranges:
            pages |= self._pages(offset, length)
        self._charge(pages)
        stored = self.data + self.pending
        return [[bytes(stored[o : o + n])] for o, n in ranges]

    def erase(self) -> None:
        self._live()
        for block in self.blocks:
            self.device.erase_block(block.block_id)
        self.erased = True


def recording_device():
    """A fresh device whose program, read and erase commands are logged."""
    device = SimulatedSSD(
        SSDGeometry(block_count=96, pages_per_block=PAGES_PER_BLOCK, page_size=PAGE)
    )
    log = []
    for name in ("program", "read", "erase_block"):
        method = getattr(device, name)

        def logged(*args, _method=method, _name=name, **kwargs):
            log.append((_name, args, kwargs))
            return _method(*args, **kwargs)

        setattr(device, name, logged)
    return device, log


def ramp(length: int, first: int) -> bytes:
    """``length`` bytes that differ from their neighbours, so a piece
    read from the wrong place never passes for the right one."""
    return bytes((first + index) % 251 for index in range(length))


#: up to two pages: chunks cross pages, pieces straddle the programmed
#: boundary, and a batch can outrun its block
chunk = st.builds(ramp, st.integers(min_value=0, max_value=1100), st.integers(0, 250))
#: a framed batch as head and body pieces, and where its appends split it
framed = st.tuples(
    st.lists(
        st.tuples(
            st.builds(ramp, st.integers(min_value=1, max_value=20), st.integers(0, 250)),
            st.builds(ramp, st.integers(min_value=0, max_value=700), st.integers(0, 250)),
        ),
        min_size=1, max_size=6,
    ),
    st.lists(st.integers(min_value=0), max_size=2),
)
operation = st.one_of(
    st.tuples(st.just("append"), chunk),
    st.tuples(st.just("append_many"), st.lists(chunk, max_size=5)),
    st.tuples(st.just("append_frames"), framed),
    st.tuples(st.just("flush"), st.none()),
    st.tuples(st.just("discard_unprogrammed"), st.none()),
    st.tuples(
        st.just("corrupt"),
        st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
    ),
    st.tuples(
        st.just("read"),
        st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=1600)),
    ),
    # a read around the programmed/unprogrammed seam
    st.tuples(
        st.just("seam_read"),
        st.tuples(st.integers(min_value=0, max_value=600), st.integers(min_value=0, max_value=600)),
    ),
    st.tuples(
        st.just("read_many"),
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=0, max_value=900)),
            max_size=6,
        ),
    ),
    # back-to-back ranges, as a frame's head and body or neighbours are
    st.tuples(
        st.just("split_read"),
        st.tuples(
            st.integers(min_value=0),
            st.lists(st.integers(min_value=0, max_value=700), min_size=2, max_size=5),
        ),
    ),
    st.tuples(st.just("erase"), st.none()),
)


def clip(size: int, offset: int, length: int):
    """A valid ``(offset, length)`` of a unit of ``size`` bytes."""
    offset = offset % (size + 1)
    return offset, min(length, size - offset)


def outcome(unit, kind, arg, size, programmed):
    """Run one operation; its result or the type of the error it raised."""
    try:
        if kind == "append":
            return unit.append(arg)
        if kind == "append_many":
            return unit.append_many(arg)
        if kind == "append_frames":
            # one batch, appended as consecutive ranges (a segment split)
            pairs, splits = arg
            frames = Frames.of(*zip(*pairs))
            cuts = sorted(split % (len(pairs) + 1) for split in splits)
            bounds = [0, *cuts, len(pairs)]
            return [
                unit.append_frames(frames, first, stop)
                for first, stop in zip(bounds, bounds[1:])
            ]
        if kind in ("flush", "discard_unprogrammed", "erase"):
            return getattr(unit, kind)()
        if kind == "corrupt":
            offset, mask = arg
            return unit.corrupt(offset % size, mask) if size else None
        if kind == "read":
            return unit.read(*clip(size, *arg))
        if kind == "seam_read":
            before, after = arg
            offset = max(programmed - before, 0)
            return unit.read(offset, min(programmed + after, size) - offset)
        if kind == "split_read":
            offset, lengths = arg
            ranges = []
            for length in lengths:
                ranges.append(clip(size, offset, length))
                offset = sum(ranges[-1])
        else:
            ranges = [clip(size, *pair) for pair in arg]
        return [b"".join(parts) for parts in unit.read_many(ranges)]
    except StorageError as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(operations=st.lists(operation, max_size=30))
def test_unit_matches_the_bytearray_model(operations):
    unit_device, unit_log = recording_device()
    model_device, model_log = recording_device()
    unit = NativeBlockInterface(unit_device).open_unit("unit")
    model = BytearrayUnit(model_device)
    for kind, arg in operations:
        size = model.size
        programmed = len(model.data)
        got = outcome(unit, kind, arg, size, programmed)
        want = outcome(model, kind, arg, size, programmed)
        assert got == want, (kind, arg)
        assert unit_log == model_log, (kind, arg)
        if not model.erased:
            assert unit.size == model.size
            assert unit.read(0, unit.size) == model.read(0, model.size)
    unit_counters, model_counters = unit_device.counters, model_device.counters
    assert unit_counters == model_counters
    assert unit_device.now == model_device.now
    assert sum(entry[0] == "read" for entry in unit_log) == sum(
        entry[0] == "read" for entry in model_log
    )


def test_reads_hand_back_the_pieces_they_were_given():
    device, _log = recording_device()
    unit = NativeBlockInterface(device).open_unit("unit")
    head, body = b"h" * 13, b"b" * 300
    assert unit.append_many([b"x" * 500, head, body]) == 0
    (parts,) = unit.read_many([(500, 313)])
    assert parts[0] is head and parts[1] is body  # shared, not copied
    assert unit.read(513, 300) is body
    assert unit.read_many([(490, 30)]) == [[b"x" * 10, head, b"b" * 7]]
    unit.corrupt(600, 0x01)  # the damaged piece alone is copied
    assert body == b"b" * 300
    assert unit.read(513, 300) != body
    assert unit.read_many([(500, 13)])[0][0] is head


def test_a_frame_extent_holds_the_batch_columns_and_damage_splits_it():
    """Two units appending one framed batch hold its piece list and
    starts themselves — one extent each, nothing per frame — and an
    exact-frame read is the shared head and body.  Damage to one unit
    splits its extent around the damaged frame: that frame alone is
    copied there, and the other unit and the batch keep clean bytes."""
    heads = [bytes([index]) * 13 for index in range(1, 6)]
    bodies = [bytes([index]) * (100 + index) for index in range(10, 15)]
    frames = Frames.of(heads, bodies)
    damaged, clean = (
        NativeBlockInterface(recording_device()[0]).open_unit(tag)
        for tag in ("damaged", "clean")
    )
    for unit in (damaged, clean):
        unit.append_many([b"x" * 7])
        assert unit.append_frames(frames, 0, 3) == 7
        assert unit.append_frames(frames, 3, 5) == 7 + frames.starts[3]
        assert [
            (extent.pieces, extent.starts, extent.first, extent.stop)
            for extent in unit.extents[1:]
        ] == [(frames.pieces, frames.starts, 0, 3), (frames.pieces, frames.starts, 3, 5)]
        assert all(extent.pieces is frames.pieces for extent in unit.extents[1:])
        (parts,) = unit.read_many([(7 + frames.starts[1], frames.lengths[1])])
        assert parts[0] is heads[1] and parts[1] is bodies[1]
    at = 7 + frames.starts[1] + 13 + 5  # a byte of frame 1's body
    damaged.corrupt(at, 0x80)
    assert [
        (extent.first, extent.stop, extent.pieces is frames.pieces)
        for extent in damaged.extents[1:]
    ] == [(0, 1, True), (0, 1, False), (2, 3, True), (3, 5, True)]
    assert frames.pieces[3] is bodies[1] and bodies[1] == bytes([11]) * 111
    (parts,) = damaged.read_many([(7 + frames.starts[1], frames.lengths[1])])
    assert parts[0] is heads[1] and parts[1] != bodies[1]
    assert clean.read(at, 1) == bytes([11])
    assert damaged.read(at, 1) == bytes([11 ^ 0x80])
    image = b"x" * 7 + b"".join(frames.pieces)
    assert clean.read(0, clean.size) == image
    assert damaged.read(0, damaged.size) == image[:at] + bytes([11 ^ 0x80]) + image[at + 1 :]


class _Sized(bytes):
    """A piece that reports a length it does not hold."""

    def __len__(self) -> int:
        return MAX_UNIT_BYTES


def test_an_append_past_the_offset_range_is_refused_whole():
    """An append that would carry a unit past :data:`MAX_UNIT_BYTES`
    raises a typed error and changes nothing (no extent, offset or
    device program), whether it is chunks or a range of frames."""
    device, log = recording_device()
    unit = NativeBlockInterface(device).open_unit("unit")
    unit.append_many([b"a" * 100, b"b" * 50])
    before = (unit.size, list(unit.extents), len(log))
    with pytest.raises(StorageError):
        unit.append_many([b"c" * 10, _Sized(b"d")])
    assert (unit.size, list(unit.extents), len(log)) == before
    huge = Frames([b"h", b"b"], array("q", [MAX_UNIT_BYTES]), array("q", [0, MAX_UNIT_BYTES]))
    with pytest.raises(StorageError):
        unit.append_frames(huge, 0, 1)
    assert (unit.size, list(unit.extents), len(log)) == before
    assert unit.read(0, 150) == b"a" * 100 + b"b" * 50
