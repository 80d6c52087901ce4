"""Physical layout of the simulated flash device."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Defaults match the paper's Figure 3: 4 KB pages, 256 KB blocks (64 pages).
DEFAULT_PAGE_SIZE = 4 * 1024
DEFAULT_PAGES_PER_BLOCK = 64


@dataclass(frozen=True)
class SSDGeometry:
    """Immutable device layout: pages, blocks, and capacity.

    ``op_ratio`` is the over-provisioning fraction — spare blocks the FTL
    keeps in reserve so its garbage collector always has a migration
    target.  Real devices ship 7–28% OP; we default to 7%.
    """

    block_count: int
    page_size: int = DEFAULT_PAGE_SIZE
    pages_per_block: int = DEFAULT_PAGES_PER_BLOCK
    op_ratio: float = 0.07

    def __post_init__(self) -> None:
        if self.block_count < 4:
            raise ConfigError(f"need at least 4 blocks, got {self.block_count}")
        if self.page_size < 512:
            raise ConfigError(f"page size too small: {self.page_size}")
        if self.pages_per_block < 2:
            raise ConfigError(
                f"pages per block must be >= 2, got {self.pages_per_block}"
            )
        if not 0.0 < self.op_ratio < 0.5:
            raise ConfigError(f"op_ratio must be in (0, 0.5), got {self.op_ratio}")
        if self.reserved_blocks >= self.block_count:
            raise ConfigError("over-provisioning consumes the whole device")

    @property
    def block_size(self) -> int:
        """Bytes per erase block."""
        return self.page_size * self.pages_per_block

    @property
    def reserved_blocks(self) -> int:
        """Blocks held back from the host as over-provisioning."""
        return max(2, int(self.block_count * self.op_ratio))

    @property
    def exported_blocks(self) -> int:
        """Blocks' worth of capacity visible to the host."""
        return self.block_count - self.reserved_blocks

    @property
    def exported_pages(self) -> int:
        """Host-visible logical pages."""
        return self.exported_blocks * self.pages_per_block

    @classmethod
    def from_capacity(
        cls,
        capacity_bytes: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        pages_per_block: int = DEFAULT_PAGES_PER_BLOCK,
        op_ratio: float = 0.07,
    ) -> "SSDGeometry":
        """Build a geometry whose *physical* capacity is ~``capacity_bytes``."""
        block_size = page_size * pages_per_block
        blocks = max(4, capacity_bytes // block_size)
        return cls(
            block_count=int(blocks),
            page_size=page_size,
            pages_per_block=pages_per_block,
            op_ratio=op_ratio,
        )
