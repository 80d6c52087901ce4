"""The hash-indexed engine: an unordered dictionary over AOFs.

Interface-compatible with :class:`~repro.qindb.QinDB` (versioned puts,
value-less deduplicated puts resolved by probing earlier versions) so
benches can swap it in; the structural difference under measurement is
the *index*:

* QinDB: a sorted in-memory index — neighbours are adjacent, so traceback,
  referent checks, and range scans are neighbourhood walks;
* HashKV: a hash table — point lookups are O(1), but version probing
  must guess keys, and a range scan degenerates into a full-table sweep
  plus a sort.

The CPU cost model charges hash operations a per-access cost (the random
memory access of the paper's MegaKV citation) and scans a per-visited-
entry cost, making the asymptotic difference visible in simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError, KeyNotFoundError
from repro.qindb.aof import AofManager, RecordLocation
from repro.qindb.records import Bodies
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry
from repro.ssd.timing import TimingModel


@dataclass(frozen=True)
class HashKVConfig:
    """Tunables for the hash-indexed baseline."""

    segment_bytes: int = 64 * 1024 * 1024
    #: cost of one hash-table access (a random DRAM access + probe chain)
    cpu_per_hash_access_s: float = 400e-9
    cpu_per_op_s: float = 2e-6
    #: cost of visiting one entry during a full-table sweep
    cpu_per_sweep_entry_s: float = 150e-9

    def __post_init__(self) -> None:
        if self.segment_bytes <= 0:
            raise ConfigError("segment_bytes must be positive")
        if min(
            self.cpu_per_hash_access_s,
            self.cpu_per_op_s,
            self.cpu_per_sweep_entry_s,
        ) < 0:
            raise ConfigError("CPU costs must be >= 0")


@dataclass
class _HashEntry:
    location: RecordLocation
    deduplicated: bool


class HashKV:
    """Append-only log + hash-table index (FlashStore-shaped)."""

    def __init__(
        self, device: SimulatedSSD, config: HashKVConfig | None = None
    ) -> None:
        self.device = device
        self.config = config or HashKVConfig()
        self.aofs = AofManager(device, segment_bytes=self.config.segment_bytes)
        self._table: Dict[Tuple[bytes, int], _HashEntry] = {}
        self.user_bytes_written = 0
        self.user_bytes_read = 0

    @classmethod
    def with_capacity(
        cls,
        capacity_bytes: int,
        config: HashKVConfig | None = None,
        timing: TimingModel | None = None,
    ) -> "HashKV":
        geometry = SSDGeometry.from_capacity(capacity_bytes)
        return cls(SimulatedSSD(geometry, timing=timing), config=config)

    # ------------------------------------------------------------------
    def _charge(self, hash_accesses: int = 1) -> None:
        self.device.advance(
            self.config.cpu_per_op_s
            + hash_accesses * self.config.cpu_per_hash_access_s
        )

    # ------------------------------------------------------------------
    def put(self, key: bytes, version: int, value: Optional[bytes]) -> None:
        """Append the record and install the hash entry."""
        batch = Bodies([(key, version, value)])
        (run,) = self.aofs.append_frames(batch.frames(range(1)))
        self._table[(key, version)] = _HashEntry(
            (run.segment_id, run.offset, run.nbytes), batch.dedup[0]
        )
        self.user_bytes_written += len(key) + (0 if value is None else len(value))
        self._charge()

    def get(self, key: bytes, version: int) -> bytes:
        """Point lookup; dedup resolution probes earlier version keys.

        Without ordering, the only way down a dedup chain is to *guess*
        predecessor versions one hash probe at a time — each probe a
        random memory access.
        """
        entry = self._table.get((key, version))
        self._charge()
        if entry is None:
            raise KeyNotFoundError(f"no live item for {key!r}/{version}")
        probes = 0
        probe_version = version
        current: Optional[_HashEntry] = entry
        # Walk down one version number at a time: the hash index cannot
        # jump to "the next older *existing* version" the way a sorted
        # index can, so holes in the version sequence cost probes too.
        while current is None or current.deduplicated:
            if probe_version == 0:
                raise KeyNotFoundError(
                    f"dedup chain for {key!r}/{version} reaches no stored value"
                )
            probe_version -= 1
            probes += 1
            current = self._table.get((key, probe_version))
        self._charge(hash_accesses=max(1, probes))
        value = self.aofs.read_values([current.location])[0]
        self.user_bytes_read += len(key) + len(value)
        return value

    # ------------------------------------------------------------------
    def scan(
        self, start_key: bytes, end_key: bytes
    ) -> Iterator[Tuple[bytes, int, bytes]]:
        """Range scan: a full-table sweep, then sort the survivors.

        This is the operation the hash layout cannot do better than
        O(table size) — the paper's reason for a *sorted* memtable.
        """
        self.device.advance(
            len(self._table) * self.config.cpu_per_sweep_entry_s
        )
        survivors: List[Tuple[bytes, int]] = [
            (key, version)
            for key, version in self._table
            if start_key <= key < end_key
        ]
        survivors.sort()
        for key, version in survivors:
            entry = self._table[(key, version)]
            if entry.deduplicated:
                try:
                    yield key, version, self.get(key, version)
                except KeyNotFoundError:
                    continue
            else:
                yield key, version, self.aofs.read_values([entry.location])[0]
