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
    def pages_per_write_op(self) -> float:
        """Mean pages per program command (the coalescing factor)."""
        ops = self.total_write_ops
        return self.total_pages_written / ops if ops else 0.0

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

    def snapshot(self) -> "DeviceCounters":
        """An independent copy, for delta computations between samples."""
        return DeviceCounters(
            page_size=self.page_size,
            host_pages_written=self.host_pages_written,
            host_pages_read=self.host_pages_read,
            gc_pages_written=self.gc_pages_written,
            gc_pages_read=self.gc_pages_read,
            blocks_erased=self.blocks_erased,
            busy_time_s=self.busy_time_s,
            host_write_ops=self.host_write_ops,
            gc_write_ops=self.gc_write_ops,
        )

    def delta(self, earlier: "DeviceCounters") -> "DeviceCounters":
        """Counter differences since ``earlier`` (a prior snapshot)."""
        return DeviceCounters(
            page_size=self.page_size,
            host_pages_written=self.host_pages_written - earlier.host_pages_written,
            host_pages_read=self.host_pages_read - earlier.host_pages_read,
            gc_pages_written=self.gc_pages_written - earlier.gc_pages_written,
            gc_pages_read=self.gc_pages_read - earlier.gc_pages_read,
            blocks_erased=self.blocks_erased - earlier.blocks_erased,
            busy_time_s=self.busy_time_s - earlier.busy_time_s,
            host_write_ops=self.host_write_ops - earlier.host_write_ops,
            gc_write_ops=self.gc_write_ops - earlier.gc_write_ops,
        )
