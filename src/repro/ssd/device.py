"""The simulated SSD: a pool of erase blocks, a clock, and counters.

The device owns the physical blocks and the time base.  Higher layers —
the :class:`~repro.ssd.ftl.FlashTranslationLayer` (conventional path) and
the :class:`~repro.ssd.native.NativeBlockInterface` (the paper's "native
SSD programming interfaces") — allocate blocks from the shared free pool
and charge reads/programs/erases through the device so the firmware
counters see *all* traffic regardless of path.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import DeviceFullError, OutOfRangeError
from repro.ssd.geometry import SSDGeometry
from repro.ssd.stats import DeviceCounters
from repro.ssd.timing import TimingModel


class Block:
    """Physical erase block: a write pointer and an erase counter.

    Page-level validity bookkeeping lives in the layer that owns the block
    (FTL or native client); the device only knows who owns it and how far
    its sequential write pointer has advanced.
    """

    __slots__ = ("block_id", "owner", "write_ptr", "erase_count")

    def __init__(self, block_id: int) -> None:
        self.block_id = block_id
        self.owner: Optional[str] = None
        self.write_ptr = 0
        self.erase_count = 0


class SimulatedSSD:
    """A flash device with explicit pages, blocks, timing, and counters."""

    def __init__(
        self,
        geometry: SSDGeometry,
        timing: TimingModel | None = None,
    ) -> None:
        self.geometry = geometry
        self.timing = timing or TimingModel()
        self.counters = DeviceCounters(page_size=geometry.page_size)
        self._now = 0.0
        #: npages -> seconds a read of them takes (``timing`` is frozen)
        self._read_s: Dict[int, float] = {}
        self._blocks: Dict[int, Block] = {
            i: Block(i) for i in range(geometry.block_count)
        }
        # FIFO free pool gives round-robin wear leveling for free.
        self._free: Deque[int] = deque(range(geometry.block_count))

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Device-local simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Charge non-I/O time (host compute, think time) to the clock."""
        if seconds < 0:
            raise OutOfRangeError(f"cannot advance time by {seconds}")
        self._now += seconds

    # ------------------------------------------------------------------
    # Block pool
    # ------------------------------------------------------------------
    @property
    def free_block_count(self) -> int:
        """Blocks currently in the free pool."""
        return len(self._free)

    def block(self, block_id: int) -> Block:
        """Look up a block by id (raises for out-of-range ids)."""
        try:
            return self._blocks[block_id]
        except KeyError:
            raise OutOfRangeError(f"no such block: {block_id}") from None

    def allocate_block(self, owner: str) -> Block:
        """Take a block from the free pool for ``owner``."""
        if not self._free:
            raise DeviceFullError("no free blocks on device")
        block = self._blocks[self._free.popleft()]
        block.owner = owner
        block.write_ptr = 0
        return block

    def erase_block(self, block_id: int) -> None:
        """Erase a block and return it to the free pool."""
        block = self.block(block_id)
        if block.owner is None:
            raise OutOfRangeError(f"block {block_id} is already free")
        block.owner = None
        block.write_ptr = 0
        block.erase_count += 1
        self.counters.blocks_erased += 1
        self._free.append(block_id)
        self._charge(self.timing.erase_time())

    # ------------------------------------------------------------------
    # Physical page I/O (called by FTL / native layers)
    # ------------------------------------------------------------------
    def program(self, block_id: int, npages: int, source: str = "host") -> int:
        """Program ``npages`` sequentially at the block's write pointer.

        Returns the page index of the first page written.  ``source`` is
        ``"host"`` or ``"gc"`` and controls which counter the traffic lands
        in — the firmware ``Sys Write`` sees both.
        """
        block = self.block(block_id)
        if block.owner is None:
            raise OutOfRangeError(f"programming a free block: {block_id}")
        if npages < 0:
            raise OutOfRangeError(f"negative page count: {npages}")
        if block.write_ptr + npages > self.geometry.pages_per_block:
            raise OutOfRangeError(
                f"block {block_id} overflows: ptr={block.write_ptr} "
                f"+ {npages} > {self.geometry.pages_per_block}"
            )
        first = block.write_ptr
        block.write_ptr += npages
        self._count_pages(npages, source, write=True)
        self._charge(self.timing.write_time(npages))
        return first

    def read(self, block_id: int, npages: int, source: str = "host") -> None:
        """Sense ``npages`` from a block (position does not affect cost)."""
        block = self.block(block_id)
        if block.owner is None:
            raise OutOfRangeError(f"reading a free block: {block_id}")
        if npages < 0:
            raise OutOfRangeError(f"negative page count: {npages}")
        counters = self.counters
        if source == "host":  # every serving read: no helper calls
            counters.host_pages_read += npages
        else:
            self._count_pages(npages, source, write=False)
        seconds = self._read_s.get(npages)
        if seconds is None:
            seconds = self._read_s[npages] = self.timing.read_time(npages)
        self._now += seconds
        counters.busy_time_s += seconds

    # ------------------------------------------------------------------
    def _count_pages(self, npages: int, source: str, write: bool) -> None:
        if source == "host":
            if write:
                self.counters.host_pages_written += npages
                self.counters.host_write_ops += 1 if npages else 0
            else:
                self.counters.host_pages_read += npages
        elif source == "gc":
            if write:
                self.counters.gc_pages_written += npages
                self.counters.gc_write_ops += 1 if npages else 0
            else:
                self.counters.gc_pages_read += npages
        else:
            raise OutOfRangeError(f"unknown traffic source: {source!r}")

    def _charge(self, seconds: float) -> None:
        self._now += seconds
        self.counters.busy_time_s += seconds
