"""Firmware-style counters exposed by the simulated device.

The paper's Figure 5 plots three series: ``User Write`` (application-level
bytes), ``Sys Write`` and ``Sys Read`` "measured by the SSD firmware".
``DeviceCounters`` is that firmware view: every page actually programmed or
read by the flash — whether on behalf of the host or of the device's own
garbage collector — lands here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DeviceCounters:
    """Mutable op counters, all in pages/blocks; byte helpers derive."""

    page_size: int
    host_pages_written: int = 0
    host_pages_read: int = 0
    gc_pages_written: int = 0
    gc_pages_read: int = 0
    blocks_erased: int = 0
    busy_time_s: float = 0.0
    #: program *commands* issued (one multi-page program counts once);
    #: pages/ops is the coalescing factor the batched write path buys.
    host_write_ops: int = 0
    gc_write_ops: int = 0

    @property
    def total_pages_written(self) -> int:
        """Pages physically programmed (host + device GC)."""
        return self.host_pages_written + self.gc_pages_written

    @property
    def total_write_ops(self) -> int:
        """Program commands issued (host + device GC)."""
        return self.host_write_ops + self.gc_write_ops

    @property
    def total_pages_read(self) -> int:
        """Pages physically sensed (host + device GC)."""
        return self.host_pages_read + self.gc_pages_read

    @property
    def host_bytes_written(self) -> int:
        return self.host_pages_written * self.page_size

    @property
    def total_bytes_written(self) -> int:
        """The firmware ``Sys Write`` counter, in bytes."""
        return self.total_pages_written * self.page_size

    @property
    def total_bytes_read(self) -> int:
        """The firmware ``Sys Read`` counter, in bytes."""
        return self.total_pages_read * self.page_size

    @property
    def hardware_write_amplification(self) -> float:
        """Physical pages programmed per host page written (>= 1.0)."""
        if self.host_pages_written == 0:
            return 1.0
        return self.total_pages_written / self.host_pages_written
