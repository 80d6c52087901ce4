"""Index builders: documents in, versioned key-value datasets out.

Forward indices are ``<URL, terms>``, summary indices ``<URL, abstract>``,
inverted indices ``<term, URLs>`` (paper 1.1.1).  Values are deterministic
functions of document content, so an unchanged document yields
byte-identical entries across versions — the property Bifrost's signature
deduplication exploits.

``value_scale`` pads values deterministically (derived from a content
hash) to emulate production value sizes — the paper's summary values
average 20 KB, far larger than synthetic abstracts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.bifrost.signature import signature
from repro.errors import ConfigError
from repro.indexing.corpus import SyntheticWebCorpus
from repro.indexing.crawler import Crawler
from repro.indexing.types import Document, IndexDataset, IndexEntry, IndexKind


def _padded(payload: bytes, target_bytes: int) -> bytes:
    """Deterministically pad ``payload`` up to ``target_bytes``.

    The pad derives from a hash of the payload, so identical content
    always produces identical padded values (dedup still works) while
    different content never pads identically.
    """
    if target_bytes <= len(payload):
        return payload
    pad_needed = target_bytes - len(payload)
    seed = hashlib.blake2b(payload, digest_size=32).digest()
    pad = (seed * (pad_needed // len(seed) + 1))[:pad_needed]
    return payload + pad


_BLOCK_BYTES = 64

#: (cycle, term) -> block digest.  The block derives from nothing else,
#: and the same pairs recur across every document sharing a term and
#: every generation cycle, so the memo returns identical bytes to
#: recomputation.  Bounded by vocabulary x observed cycles.
_block_cache: dict = {}


def _term_block(cycle: int, term: str) -> bytes:
    block = _block_cache.get((cycle, term))
    if block is None:
        block = hashlib.blake2b(
            f"{cycle}|{term}".encode(), digest_size=_BLOCK_BYTES
        ).digest()
        _block_cache[(cycle, term)] = block
    return block


def _expanded(terms: List[str], target_bytes: int, payload: bytes) -> bytes:
    """Expand ``terms`` into a ``target_bytes`` value with *local* change
    structure.

    Each term deterministically contributes one 64-byte block at its
    position, so replacing one term changes only its blocks and leaves
    the rest of the value byte-identical — how a real document body
    changes.  (A whole-content hash pad would rewrite the entire value on
    any edit, making finer-than-value deduplication look useless.)

    Identical term lists expand identically; any differing term yields a
    differing value.  ``payload`` (the human-readable form) leads the
    value so tests and examples can still read it.
    """
    if target_bytes <= len(payload) or not terms:
        return _padded(payload, target_bytes)
    blocks_needed = -(-(target_bytes - len(payload)) // _BLOCK_BYTES)
    nterms = len(terms)
    blocks = [
        _term_block(index // nterms, terms[index % nterms])
        for index in range(blocks_needed)
    ]
    return (payload + b"".join(blocks))[:target_bytes]


class ForwardIndexBuilder:
    """``<URL, terms>`` entries."""

    def __init__(self, value_bytes: int = 0) -> None:
        self.value_bytes = value_bytes

    def build(self, documents: Iterable[Document]) -> List[IndexEntry]:
        entries = []
        for document in documents:
            payload = " ".join(document.terms).encode()
            value = _expanded(document.terms, self.value_bytes, payload)
            entries.append(
                IndexEntry(
                    IndexKind.FORWARD,
                    document.url.encode(),
                    value,
                    signature=signature(value),
                )
            )
        return entries


class SummaryIndexBuilder:
    """``<URL, abstract>`` entries, padded toward production sizes."""

    def __init__(self, value_bytes: int = 0) -> None:
        self.value_bytes = value_bytes

    def build(self, documents: Iterable[Document]) -> List[IndexEntry]:
        entries = []
        for document in documents:
            payload = document.abstract.encode()
            value = _expanded(document.terms, self.value_bytes, payload)
            entries.append(
                IndexEntry(
                    IndexKind.SUMMARY,
                    document.url.encode(),
                    value,
                    signature=signature(value),
                )
            )
        return entries


class InvertedIndexBuilder:
    """``<term, URLs>`` entries, maintained incrementally across rounds.

    The builder keeps the posting lists and each document's last-indexed
    term set, so updating after a crawl touches only the changed
    documents' terms — the incremental regime of a production pipeline.
    """

    def __init__(self) -> None:
        self._postings: Dict[str, Set[str]] = {}
        self._indexed_terms: Dict[str, Set[str]] = {}

    def update(self, documents: Iterable[Document]) -> Set[str]:
        """Fold changed documents in; returns the set of affected terms."""
        affected: Set[str] = set()
        for document in documents:
            new_terms = set(document.terms)
            old_terms = self._indexed_terms.get(document.url, set())
            for term in old_terms - new_terms:
                posting = self._postings.get(term)
                if posting is not None:
                    posting.discard(document.url)
                    if not posting:
                        del self._postings[term]
                affected.add(term)
            for term in new_terms - old_terms:
                self._postings.setdefault(term, set()).add(document.url)
                affected.add(term)
            self._indexed_terms[document.url] = new_terms
        return affected

    def build(self) -> List[IndexEntry]:
        """Emit the full posting list of every live term."""
        entries = []
        for term in sorted(self._postings):
            urls = "\n".join(sorted(self._postings[term])).encode()
            entries.append(
                IndexEntry(
                    IndexKind.INVERTED, term.encode(), urls,
                    signature=signature(urls),
                )
            )
        return entries


@dataclass
class PipelineConfig:
    """Value-size shaping for the three index families."""

    forward_value_bytes: int = 0
    summary_value_bytes: int = 0

    def __post_init__(self) -> None:
        if min(self.forward_value_bytes, self.summary_value_bytes) < 0:
            raise ConfigError("value paddings must be >= 0")


class IndexBuildPipeline:
    """Crawl -> build: produces one full :class:`IndexDataset` per round."""

    def __init__(
        self,
        corpus: SyntheticWebCorpus,
        config: PipelineConfig | None = None,
    ) -> None:
        self.corpus = corpus
        self.config = config or PipelineConfig()
        self.crawler = Crawler(corpus)
        self.forward = ForwardIndexBuilder(self.config.forward_value_bytes)
        self.summary = SummaryIndexBuilder(self.config.summary_value_bytes)
        self.inverted = InvertedIndexBuilder()
        self._version = 0

    def build_version(self) -> IndexDataset:
        """Crawl modified documents and emit the next full dataset.

        The dataset always contains *every* key (a version is complete);
        deduplication against the previous version happens downstream in
        Bifrost.
        """
        self._version += 1
        changed = (
            self.crawler.full_crawl()
            if self._version == 1
            else self.crawler.crawl()
        )
        self.inverted.update(changed)
        dataset = IndexDataset(version=self._version)
        all_documents = list(self.corpus.documents())
        for entry in self.forward.build(all_documents):
            dataset.add(entry)
        for entry in self.summary.build(all_documents):
            dataset.add(entry)
        for entry in self.inverted.build():
            dataset.add(entry)
        return dataset

    def advance_and_build(self, mutation_rate: float | None = None) -> IndexDataset:
        """Mutate the corpus one round, then build the next version."""
        self.corpus.advance_round(mutation_rate)
        return self.build_version()
