"""Inter-version deduplication of index entries.

"Only if the signature differs, a key-value pair is forwarded to the
network transmission, otherwise the value field will be removed before
delivery" (paper 2.2).  The deduplicator holds the previous version's
signature per key; an unchanged entry is forwarded value-less and the
destination store resolves it by traceback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.bifrost.signature import signature
from repro.indexing.types import IndexDataset, IndexEntry, IndexKind


@dataclass
class DedupResult:
    """The deduplicated dataset plus the savings accounting."""

    dataset: IndexDataset
    total_entries: int
    deduplicated_entries: int
    bytes_before: int
    bytes_after: int
    #: entries whose build-time signature spared a re-hash of the value
    hashes_avoided: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Fraction of entries whose value was removed."""
        if self.total_entries == 0:
            return 0.0
        return self.deduplicated_entries / self.total_entries

    @property
    def bytes_saved(self) -> int:
        return self.bytes_before - self.bytes_after

    @property
    def bandwidth_saving_ratio(self) -> float:
        """Fraction of wire bytes removed (the paper's 63%)."""
        if self.bytes_before == 0:
            return 0.0
        return self.bytes_saved / self.bytes_before


class Deduplicator:
    """Stateful per-key signature store spanning consecutive versions.

    One table per kind maps a key to the signature of the value it had
    in the previous version.
    """

    def __init__(self) -> None:
        self._signatures: Dict[IndexKind, Dict[bytes, bytes]] = {
            kind: {} for kind in IndexKind
        }
        #: lifetime count of re-hashes the build-time signatures spared
        self.hashes_avoided = 0

    def forget(self) -> None:
        """Drop the predecessor's signatures, so the next version ships
        every value: after a failed rollout the stores never got the
        version these signatures describe."""
        self._signatures = {kind: {} for kind in IndexKind}

    def process(self, dataset: IndexDataset) -> DedupResult:
        """Strip values that are identical to the previous version's.

        Replaces the signature store with the current version's, so
        calling ``process`` version after version compares each version
        against its immediate predecessor — and only it: a key absent
        from a version ships its value when it returns, because by then
        the stores may have evicted and collected the record an older
        signature vouched for.

        An entry carrying a build-time signature (the index pipeline
        computes one per value) is compared without re-hashing its value;
        only signature-less entries pay :func:`signature` here.
        """
        output = IndexDataset(version=dataset.version)
        total = 0
        deduplicated = 0
        bytes_before = 0
        bytes_after = 0
        hashes_avoided = 0
        signatures_now: Dict[IndexKind, Dict[bytes, bytes]] = {}
        for kind in IndexKind:
            entries = dataset.of_kind(kind)
            previous = self._signatures[kind]
            current: Dict[bytes, bytes] = {}
            shipped: List[IndexEntry] = []
            for entry in entries:
                value = entry.value
                if value is None:
                    raise ValueError(
                        "deduplicator input must carry values "
                        f"(key {entry.key!r} has none)"
                    )
                wire_bytes = entry.wire_bytes
                bytes_before += wire_bytes
                current_signature = entry.signature
                if current_signature is None:
                    current_signature = signature(value)
                else:
                    hashes_avoided += 1
                if previous.get(entry.key) == current_signature:
                    entry = entry.deduplicated()
                    deduplicated += 1
                    wire_bytes = entry.wire_bytes
                shipped.append(entry)
                bytes_after += wire_bytes
                current[entry.key] = current_signature
            total += len(entries)
            signatures_now[kind] = current
            output.entries[kind] = shipped
        self._signatures = signatures_now
        self.hashes_avoided += hashes_avoided
        return DedupResult(
            dataset=output,
            total_entries=total,
            deduplicated_entries=deduplicated,
            bytes_before=bytes_before,
            bytes_after=bytes_after,
            hashes_avoided=hashes_avoided,
        )
