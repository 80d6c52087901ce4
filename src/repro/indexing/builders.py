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
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

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


def _expanded(terms: Sequence[str], target_bytes: int, payload: bytes) -> bytes:
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


class _DocumentIndexBuilder:
    """``<URL, …>`` entries, one per document, kept across versions.

    Only a document whose content changed is rebuilt.  The memo holds,
    per URL, the ``terms`` tuple its entry was built from beside the
    entry; ``Document.terms`` is a tuple, so an edit replaces it, and the
    same object means the same content.  Holding the tuple keeps its id
    from being reused, and a rebuilt document replaces its old pair, so
    the memo never outgrows the corpus.
    """

    def __init__(self, value_bytes: int = 0) -> None:
        self.value_bytes = value_bytes
        self._built: Dict[str, Tuple[Tuple[str, ...], IndexEntry]] = {}
        #: lifetime entries made afresh / carried over from a memo
        self.rebuilt = 0
        self.reused = 0

    def build(self, documents: Iterable[Document]) -> List[IndexEntry]:
        built = self._built
        entries = []
        rebuilt = 0
        for document in documents:
            terms = document.terms
            held = built.get(document.url)
            if held is None or held[0] is not terms:
                value = _expanded(terms, self.value_bytes, self._payload(document))
                entry = IndexEntry(
                    self.kind,
                    document.url.encode(),
                    value,
                    signature=signature(value),
                )
                held = built[document.url] = (terms, entry)
                rebuilt += 1
            entries.append(held[1])
        self.rebuilt += rebuilt
        self.reused += len(entries) - rebuilt
        return entries


class ForwardIndexBuilder(_DocumentIndexBuilder):
    """``<URL, terms>`` entries."""

    kind = IndexKind.FORWARD

    @staticmethod
    def _payload(document: Document) -> bytes:
        return " ".join(document.terms).encode()


class SummaryIndexBuilder(_DocumentIndexBuilder):
    """``<URL, abstract>`` entries, padded toward production sizes."""

    kind = IndexKind.SUMMARY

    @staticmethod
    def _payload(document: Document) -> bytes:
        return document.abstract.encode()


class InvertedIndexBuilder:
    """``<term, URLs>`` entries, maintained incrementally across rounds.

    The builder keeps each posting as a sorted URL list and each
    document's last-indexed term set, so updating after a crawl touches
    only the changed documents' terms — the incremental regime of a
    production pipeline.  It also keeps each term's entry: :meth:`build`
    rebuilds only the terms :meth:`update` affected since the last build
    and drops a vanished term's entry.
    """

    def __init__(self) -> None:
        self._postings: Dict[str, List[str]] = {}
        self._indexed_terms: Dict[str, Set[str]] = {}
        self._entries: Dict[str, IndexEntry] = {}
        #: terms updated since the last build
        self._stale: Set[str] = set()
        #: lifetime entries made afresh / carried over from the memo
        self.rebuilt = 0
        self.reused = 0

    def update(self, documents: Iterable[Document]) -> Set[str]:
        """Fold changed documents in; returns the set of affected terms."""
        postings = self._postings
        affected: Set[str] = set()
        for document in documents:
            url = document.url
            new_terms = set(document.terms)
            old_terms = self._indexed_terms.get(url, set())
            for term in old_terms - new_terms:
                posting = postings.get(term)
                if posting is not None:
                    del posting[bisect_left(posting, url)]
                    if not posting:
                        del postings[term]
                affected.add(term)
            for term in new_terms - old_terms:
                posting = postings.get(term)
                if posting is None:
                    postings[term] = [url]
                else:
                    insort(posting, url)
                affected.add(term)
            self._indexed_terms[url] = new_terms
        self._stale |= affected
        return affected

    def build(self) -> List[IndexEntry]:
        """Emit the full posting list of every live term."""
        postings = self._postings
        memo = self._entries
        rebuilt = 0
        for term in self._stale:
            posting = postings.get(term)
            if posting is None:
                memo.pop(term, None)
                continue
            urls = "\n".join(posting).encode()
            memo[term] = IndexEntry(
                IndexKind.INVERTED, term.encode(), urls,
                signature=signature(urls),
            )
            rebuilt += 1
        self._stale = set()
        entries = [memo[term] for term in sorted(postings)]
        self.rebuilt += rebuilt
        self.reused += len(entries) - rebuilt
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
        Bifrost.  Only the crawled changes are built: an unchanged
        document's or term's entry is the very object the previous
        version held.
        """
        self._version += 1
        changed = (
            self.crawler.full_crawl()
            if self._version == 1
            else self.crawler.crawl()
        )
        self.inverted.update(changed)
        documents = list(self.corpus.documents())
        dataset = IndexDataset(version=self._version)
        dataset.entries[IndexKind.FORWARD] = self.forward.build(documents)
        dataset.entries[IndexKind.SUMMARY] = self.summary.build(documents)
        dataset.entries[IndexKind.INVERTED] = self.inverted.build()
        return dataset

    def advance_and_build(self, mutation_rate: float | None = None) -> IndexDataset:
        """Mutate the corpus one round, then build the next version."""
        self.corpus.advance_round(mutation_rate)
        return self.build_version()

    def register_metrics(self, registry) -> None:
        """``indexing.<kind>.{rebuilt,reused}``: entries each builder made
        afresh versus carried over unchanged, over the pipeline's life."""
        for kind, builder in (
            (IndexKind.FORWARD, self.forward),
            (IndexKind.SUMMARY, self.summary),
            (IndexKind.INVERTED, self.inverted),
        ):
            registry.register_many(
                f"indexing.{kind.value}",
                {
                    "rebuilt": lambda builder=builder: builder.rebuilt,
                    "reused": lambda builder=builder: builder.reused,
                },
            )
