"""Page-mapped flash translation layer with greedy garbage collection.

This is the *conventional* path through the device: the host addresses a
flat logical page space, every overwrite goes to a fresh physical page, and
when free blocks run low the FTL migrates the remaining valid pages out of
the emptiest full block and erases it.  Those migrations are the hardware
write amplification the paper removes by going through the native
interface (paper Figure 4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import DeviceFullError, OutOfRangeError
from repro.ssd.device import SimulatedSSD

_OWNER = "ftl"


class _FtlBlock:
    """Per-block page bookkeeping owned by the FTL."""

    __slots__ = ("block_id", "lpas", "valid_count")

    def __init__(self, block_id: int, pages_per_block: int) -> None:
        self.block_id = block_id
        #: lpas[i] is the logical page stored in physical page i, or None
        #: if that page has been invalidated (or never written).
        self.lpas: List[Optional[int]] = [None] * pages_per_block
        self.valid_count = 0


class FlashTranslationLayer:
    """Maps logical pages to physical pages; hides erases behind GC."""

    def __init__(self, device: SimulatedSSD, gc_headroom_blocks: int = 2) -> None:
        self.device = device
        geometry = device.geometry
        #: free blocks below this watermark trigger device GC
        self.gc_low_watermark = max(2, geometry.reserved_blocks // 2)
        self.gc_headroom_blocks = gc_headroom_blocks
        self._map: Dict[int, Tuple[int, int]] = {}  # lpa -> (block, page)
        self._blocks: Dict[int, _FtlBlock] = {}
        self._active: Optional[_FtlBlock] = None
        self._gc_active: Optional[_FtlBlock] = None

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------
    def write(self, lpas: Iterable[int]) -> None:
        """Host-write the given logical pages (each lands on a new page)."""
        for lpa in lpas:
            self._check_lpa(lpa)
            self._invalidate(lpa)
            block = self._host_block()
            page = self.device.program(block.block_id, 1, source="host")
            block.lpas[page] = lpa
            block.valid_count += 1
            self._map[lpa] = (block.block_id, page)

    def read(self, lpas: Iterable[int]) -> int:
        """Host-read logical pages; returns how many were actually mapped.

        Unmapped pages cost nothing (the FTL answers them from the map
        without touching flash), mirroring how real drives return zeroes
        for deallocated LBAs.
        """
        mapped = 0
        for lpa in lpas:
            self._check_lpa(lpa)
            location = self._map.get(lpa)
            if location is None:
                continue
            self.device.read(location[0], 1, source="host")
            mapped += 1
        return mapped

    def trim(self, lpas: Iterable[int]) -> None:
        """Deallocate logical pages (TRIM): invalidate without writing."""
        for lpa in lpas:
            self._check_lpa(lpa)
            self._invalidate(lpa)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_lpa(self, lpa: int) -> None:
        if not 0 <= lpa < self.device.geometry.exported_pages:
            raise OutOfRangeError(
                f"lpa {lpa} outside exported range "
                f"[0, {self.device.geometry.exported_pages})"
            )

    def _invalidate(self, lpa: int) -> None:
        location = self._map.pop(lpa, None)
        if location is None:
            return
        block = self._blocks[location[0]]
        block.lpas[location[1]] = None
        block.valid_count -= 1

    def _host_block(self) -> _FtlBlock:
        """The open block receiving host writes, GC-ing first if needed."""
        per_block = self.device.geometry.pages_per_block
        if self._active is not None:
            physical = self.device.block(self._active.block_id)
            if physical.write_ptr < per_block:
                return self._active
            self._active = None
        self._ensure_free_blocks()
        self._active = self._open_block()
        return self._active

    def _gc_block(self) -> _FtlBlock:
        """The open block receiving GC migrations."""
        per_block = self.device.geometry.pages_per_block
        if self._gc_active is not None:
            physical = self.device.block(self._gc_active.block_id)
            if physical.write_ptr < per_block:
                return self._gc_active
            self._gc_active = None
        self._gc_active = self._open_block()
        return self._gc_active

    def _open_block(self) -> _FtlBlock:
        block = self.device.allocate_block(_OWNER)
        state = _FtlBlock(block.block_id, self.device.geometry.pages_per_block)
        self._blocks[block.block_id] = state
        return state

    def _ensure_free_blocks(self) -> None:
        """Run device GC until the free pool is above the watermark."""
        target = self.gc_low_watermark + self.gc_headroom_blocks
        guard = len(self._blocks) + 1
        while self.device.free_block_count < target:
            if not self._collect_one():
                if self.device.free_block_count == 0:
                    raise DeviceFullError(
                        "device GC cannot reclaim space: all pages valid"
                    )
                return
            guard -= 1
            if guard < 0:
                raise DeviceFullError("device GC failed to make progress")

    def _collect_one(self) -> bool:
        """Migrate + erase the fullest-of-garbage closed block.

        Returns ``False`` when no closed block has any invalid page (GC
        would only shuffle data without freeing anything).
        """
        per_block = self.device.geometry.pages_per_block
        victim: Optional[_FtlBlock] = None
        for state in self._blocks.values():
            if state is self._active or state is self._gc_active:
                continue
            if self.device.block(state.block_id).write_ptr < per_block:
                continue  # still open; not a GC candidate
            if state.valid_count >= per_block:
                continue  # nothing to reclaim here
            if victim is None or state.valid_count < victim.valid_count:
                victim = state
                if victim.valid_count == 0:
                    break
        if victim is None:
            return False

        if victim.valid_count:
            self.device.read(victim.block_id, victim.valid_count, source="gc")
            for page, lpa in enumerate(victim.lpas):
                if lpa is None:
                    continue
                dest = self._gc_block()
                dest_page = self.device.program(dest.block_id, 1, source="gc")
                dest.lpas[dest_page] = lpa
                dest.valid_count += 1
                self._map[lpa] = (dest.block_id, dest_page)
        del self._blocks[victim.block_id]
        self.device.erase_block(victim.block_id)
        return True
