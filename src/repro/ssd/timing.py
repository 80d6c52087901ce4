"""Latency model for flash operations.

Defaults approximate a mid-2010s datacenter MLC SATA drive — the class of
device in the paper's testbed (one 500 GB SSD per docker).  The absolute
numbers only set the time base; every reproduced result is a ratio or a
shape, so they need to be *plausible*, not exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class TimingModel:
    """Seconds charged per flash operation.

    ``channel_parallelism`` models the device's internal striping: the
    effective per-page cost of large sequential transfers is divided by it,
    which is how a drive with ~200 µs page programs still sustains hundreds
    of MB/s sequentially.
    """

    page_read_s: float = 60e-6
    page_write_s: float = 250e-6
    block_erase_s: float = 2e-3
    channel_parallelism: int = 16

    def __post_init__(self) -> None:
        if self.page_read_s <= 0 or self.page_write_s <= 0:
            raise ConfigError("page latencies must be positive")
        if self.block_erase_s <= 0:
            raise ConfigError("erase latency must be positive")
        if self.channel_parallelism < 1:
            raise ConfigError(
                f"channel_parallelism must be >= 1, got {self.channel_parallelism}"
            )

    def read_time(self, npages: int) -> float:
        """Time to read ``npages``; multi-page reads stripe over channels."""
        return self._striped(npages, self.page_read_s)

    def write_time(self, npages: int) -> float:
        """Time to program ``npages``; multi-page writes stripe over channels."""
        return self._striped(npages, self.page_write_s)

    def erase_time(self, nblocks: int = 1) -> float:
        """Time to erase ``nblocks`` blocks (erases do not stripe)."""
        return nblocks * self.block_erase_s

    def _striped(self, npages: int, per_page: float) -> float:
        if npages < 0:
            raise ConfigError(f"negative page count: {npages}")
        if npages == 0:
            return 0.0
        # One serial latency, remaining pages amortized across channels.
        extra = max(0, npages - 1)
        return per_page + extra * per_page / self.channel_parallelism
