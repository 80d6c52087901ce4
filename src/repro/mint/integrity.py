"""Tiered integrity hashing for ingested index records.

The hot put/ingest path cannot afford a full cryptographic signature per
record — at web scale that is most of the ingest CPU.  This module keeps
integrity *tiered* instead:

* **ingest time (cheap)** — one CRC32 *leaf checksum* per record, a
  Merkle-style tree of CRC32 combines above the leaves, and a single
  BLAKE2b *seal* over each slice's Merkle root.  The leaf is the
  record's *body checksum* — the CRC the storage frame is sealed with
  (:mod:`repro.qindb.records`), computed once when the slice's bodies
  are built — so absorbing a slice hashes no record at all: the cost is
  O(1) amortised combines per record and one cryptographic hash per
  slice.
* **audit time (rare)** — :class:`repro.faults.repair.ReplicaRepairer`
  samples ``ceil(log2(n)) + 1`` records per slice, recomputes their leaf
  checksums from the stored bytes, verifies each leaf's Merkle path up
  to the sealed root, and full-hashes only the sampled records against
  their build-time signatures.  ``audit_hashes`` therefore grows
  O(log n) per audited slice instead of O(n) — the counter the bandwidth
  bench verifies.  A divergence triggers a full leaf sweep of that slice
  to locate every damaged record.

Build-time value signatures ride the entries (and the wire encoding), so
storing them here is free — no hashing happens at ingest beyond the CRCs
and the per-slice seal.
"""

from __future__ import annotations

import hashlib
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bifrost.signature import SIGNATURE_BYTES
from repro.indexing.types import IndexKind
from repro.qindb.records import Bodies

_COMBINE = struct.Struct("<II")


def leaf_checksum(key: bytes, version: int, value: Optional[bytes]) -> int:
    """CRC32 leaf over one record: the checksum of its stored body.

    What an audit recomputes from the bytes a replica holds, and what
    ingest took from the built batch.  ``value is None`` marks a
    deduplicated record (the store kept a version marker, not bytes);
    the body's type field differs, so a marker and an empty value cannot
    collide.
    """
    return Bodies([(key, version, value)]).checksums[0]


def combine_checksums(left: int, right: int) -> int:
    """One Merkle combine: CRC32 over the packed child checksums."""
    return zlib.crc32(_COMBINE.pack(left, right)) & 0xFFFFFFFF


def merkle_levels(leaves: List[int]) -> List[List[int]]:
    """All tree levels, leaves first; odd nodes promote unchanged.

    Level 0 is ``leaves`` itself, not a copy: the levels share it."""
    levels = [leaves]
    current = leaves
    while len(current) > 1:
        parents = []
        for index in range(0, len(current) - 1, 2):
            parents.append(combine_checksums(current[index], current[index + 1]))
        if len(current) % 2:
            parents.append(current[-1])
        levels.append(parents)
        current = parents
    return levels


def _stored_levels(stored: Bodies) -> List[List[int]]:
    """The Merkle levels over a stored batch's body checksums (a lone
    zero root for an empty batch)."""
    return merkle_levels(stored.checksums) if stored else [[0]]


@dataclass
class SliceSummary:
    """The integrity record one ingested slice leaves behind.

    Per record, in ingest order, as three columns: ``item_keys`` (the
    stored ``(key, version)``), ``dedup`` (a value-less marker) and
    ``signatures`` (the build signature, ``None`` only for deduplicated
    markers: no bytes stored, nothing to sign).  The columns are the
    slice's shared batch's own lists and a signature list built once per
    slice, so every data center's summary holds the same objects.
    """

    slice_id: str
    kind: IndexKind
    version: int
    item_keys: List[Tuple[bytes, int]] = field(repr=False)
    dedup: List[bool] = field(repr=False)
    signatures: List[Optional[bytes]] = field(repr=False)
    levels: List[List[int]] = field(repr=False)
    seal: bytes = b""

    @property
    def record_count(self) -> int:
        return len(self.item_keys)

    @property
    def root(self) -> int:
        return self.levels[-1][0]

    def path_checksums(self, index: int) -> List[Tuple[int, bool]]:
        """Sibling checksums from leaf ``index`` to the root.

        Each element is ``(sibling_checksum, sibling_is_right)``; levels
        where the node promoted without a sibling contribute nothing.
        """
        path: List[Tuple[int, bool]] = []
        for level in self.levels[:-1]:
            sibling = index ^ 1
            if sibling < len(level):
                path.append((level[sibling], bool(sibling & 1)))
            index //= 2
        return path

    def verify_path(self, index: int, leaf: int) -> bool:
        """Fold ``leaf`` up its Merkle path; True iff the root matches."""
        node = leaf
        for sibling, sibling_is_right in self.path_checksums(index):
            if sibling_is_right:
                node = combine_checksums(node, sibling)
            else:
                node = combine_checksums(sibling, node)
        return node == self.root


def seal_summary(slice_id: str, root: int) -> bytes:
    """The per-slice BLAKE2b seal — one crypto hash per slice, not per
    record."""
    digest = hashlib.blake2b(digest_size=SIGNATURE_BYTES)
    digest.update(slice_id.encode())
    digest.update(struct.pack("<I", root))
    return digest.digest()


@dataclass
class IntegrityCounters:
    """Hot-path vs audit-path hashing work, kept strictly apart."""

    # ingest tier (cheap)
    ingest_checksums: int = 0  # CRC32 leaves computed at ingest
    seal_signatures: int = 0  # one BLAKE2b per slice
    records_tracked: int = 0
    slices_tracked: int = 0
    # audit tier (rare, expensive per hash)
    audited_slices: int = 0
    audited_records: int = 0  # records whose leaf CRC was recomputed
    audit_hashes: int = 0  # full signatures computed during audits
    audit_leaf_checks: int = 0
    audit_full_sweeps: int = 0
    divergent_records: int = 0
    records_repaired: int = 0


class IntegrityIndex:
    """Per-cluster store of slice summaries, shared by all its nodes.

    The summaries describe what *should* be on every replica (ingest
    writes all replicas identically), so one index per cluster audits
    any of its nodes.
    """

    def __init__(self) -> None:
        self.counters = IntegrityCounters()
        #: slice_id -> summary
        self._slices: Dict[str, SliceSummary] = {}
        #: version -> slice_ids, for version-drop pruning
        self._by_version: Dict[int, List[str]] = {}

    def absorb(self, item, stored: Bodies, signatures) -> SliceSummary:
        """Summarise one ingested slice: leaves, tree, seal.

        ``stored`` is the batch the storage nodes were handed, in ingest
        order — the bytes they actually hold (post wire-decode when
        encoding is on), keyed the way the engines key them so audits
        peek directly — and ``signatures`` the build signature of each
        of its records.  The leaves are the batch's body checksums and
        the record columns its ``item_keys`` and ``dedup``, all taken as
        they are, and the tree is built once for every index handed the
        same batch (:func:`_stored_levels`), its leaves the checksum list.
        """
        counters = self.counters
        version = item.version
        leaves = stored.checksums
        counters.ingest_checksums += len(leaves)
        levels = stored.shared(_stored_levels, _stored_levels)
        summary = SliceSummary(
            slice_id=item.slice_id,
            kind=item.kind,
            version=version,
            item_keys=stored.item_keys,
            dedup=stored.dedup,
            signatures=signatures,
            levels=levels,
        )
        summary.seal = seal_summary(summary.slice_id, summary.root)
        counters.seal_signatures += 1
        counters.records_tracked += len(leaves)
        counters.slices_tracked += 1
        self._slices[item.slice_id] = summary
        self._by_version.setdefault(version, []).append(item.slice_id)
        return summary

    def all_summaries(self) -> List[SliceSummary]:
        return list(self._slices.values())

    def sample_size(self, record_count: int) -> int:
        """Records audited per slice: ``ceil(log2(n)) + 1``, capped at n."""
        if record_count <= 1:
            return record_count
        return min(record_count, math.ceil(math.log2(record_count)) + 1)

    def drop_version(self, version: int) -> int:
        """Forget a retired version's summaries; returns slices pruned."""
        slice_ids = self._by_version.pop(version, [])
        dropped = 0
        for slice_id in slice_ids:
            summary = self._slices.pop(slice_id, None)
            if summary is not None:
                self.counters.records_tracked -= summary.record_count
                self.counters.slices_tracked -= 1
                dropped += 1
        return dropped

    def register_metrics(self, registry, prefix: str) -> None:
        counters = self.counters
        registry.register_many(
            prefix,
            {
                "ingest_checksums": lambda: counters.ingest_checksums,
                "seal_signatures": lambda: counters.seal_signatures,
                "records_tracked": lambda: counters.records_tracked,
                "slices_tracked": lambda: counters.slices_tracked,
                "audited_slices": lambda: counters.audited_slices,
                "audited_records": lambda: counters.audited_records,
                "audit_hashes": lambda: counters.audit_hashes,
                "audit_leaf_checks": lambda: counters.audit_leaf_checks,
                "audit_full_sweeps": lambda: counters.audit_full_sweeps,
                "divergent_records": lambda: counters.divergent_records,
                "records_repaired": lambda: counters.records_repaired,
            },
        )


__all__ = [
    "IntegrityCounters",
    "IntegrityIndex",
    "SliceSummary",
    "combine_checksums",
    "leaf_checksum",
    "merkle_levels",
    "seal_summary",
]
