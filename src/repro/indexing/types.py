"""Core datatypes of the index-building pipeline."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


class IndexKind(enum.Enum):
    """The three index families the pipeline produces.

    The paper ships forward+inverted indices to all six data centers and
    summary indices to three (storage cost); Bifrost reserves separate
    bandwidth shares per stream.
    """

    FORWARD = "forward"
    INVERTED = "inverted"
    SUMMARY = "summary"


class QualityTier(enum.Enum):
    """VIP documents serve >80% of queries from a few TB (paper 1.1.1)."""

    VIP = "vip"
    NON_VIP = "non_vip"


@dataclass
class Document:
    """One crawled web page.

    ``terms`` is a tuple, so an edit replaces it and never changes it in
    place: the index builders take the same ``terms`` object to mean the
    same content.
    """

    url: str
    terms: Tuple[str, ...]
    tier: QualityTier
    #: crawl round in which the content last changed
    modified_round: int

    def __post_init__(self) -> None:
        self.terms = tuple(self.terms)

    @property
    def abstract(self) -> str:
        """The summary-index value: a prefix of the content."""
        return " ".join(self.terms[:24])


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """One key-value pair of index data.

    ``value`` may be ``None`` after deduplication — the key survives so
    the destination store can traceback to the previous version.

    Entries are immutable and shared: the builders hand an unchanged
    document's or term's entry to every version it belongs to, and the
    deduplicator ships a changed one as it came.

    ``signature`` is the value's content signature, computed once at
    build time so the deduplicator doesn't re-hash unchanged values
    every cycle; it is excluded from equality (two entries with the same
    value are the same entry whether or not a signature rode along).
    """

    kind: IndexKind
    key: bytes
    value: bytes | None
    signature: bytes | None = field(default=None, compare=False, repr=False)

    @property
    def wire_bytes(self) -> int:
        """Bytes this entry contributes to network transmission: key,
        value and 16 framing bytes."""
        return len(self.key) + 16 + (0 if self.value is None else len(self.value))

    def deduplicated(self) -> "IndexEntry":
        """The value-less copy Bifrost forwards for an unchanged pair."""
        return IndexEntry(self.kind, self.key, None)


@dataclass
class IndexDataset:
    """All index entries of one version, grouped by kind."""

    version: int
    entries: Dict[IndexKind, List[IndexEntry]] = field(
        default_factory=lambda: {kind: [] for kind in IndexKind}
    )

    def add(self, entry: IndexEntry) -> None:
        self.entries[entry.kind].append(entry)

    def of_kind(self, kind: IndexKind) -> List[IndexEntry]:
        return self.entries[kind]

    @property
    def entry_count(self) -> int:
        return sum(len(v) for v in self.entries.values())

    @property
    def total_bytes(self) -> int:
        """Wire bytes of the full (pre-dedup) dataset."""
        return sum(
            entry.wire_bytes for entries in self.entries.values() for entry in entries
        )
