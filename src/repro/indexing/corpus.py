"""A synthetic web corpus with round-by-round mutation.

Substitute for Baidu's crawled petabytes.  The corpus holds ``doc_count``
documents; each crawl round mutates every document independently with
probability ``mutation_rate``.  Since unchanged documents produce
byte-identical forward/summary index entries, the *expected* inter-version
duplicate ratio is ``1 - mutation_rate`` — the paper's ~70% duplicates
corresponds to ``mutation_rate ~= 0.3``, and the Figure 9 sweep simply
varies this knob day by day.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

from repro.errors import ConfigError
from repro.indexing.types import Document, QualityTier
from repro.indexing.vocabulary import ZipfVocabulary


class SyntheticWebCorpus:
    """Documents that evolve round by round under a mutation rate."""

    def __init__(
        self,
        doc_count: int,
        vocabulary: ZipfVocabulary | None = None,
        doc_length: int = 80,
        vip_fraction: float = 0.2,
        mutation_rate: float = 0.3,
        seed: int = 2019,
    ) -> None:
        if doc_count < 1:
            raise ConfigError(f"doc_count must be >= 1, got {doc_count}")
        if doc_length < 1:
            raise ConfigError(f"doc_length must be >= 1, got {doc_length}")
        if not 0.0 <= vip_fraction <= 1.0:
            raise ConfigError(f"vip_fraction must be in [0,1], got {vip_fraction}")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ConfigError(f"mutation_rate must be in [0,1], got {mutation_rate}")
        self.vocabulary = vocabulary or ZipfVocabulary(5000, seed=seed)
        self.doc_length = doc_length
        self.mutation_rate = mutation_rate
        self.current_round = 0
        self._random = random.Random(seed ^ 0xC0FFEE)
        self._documents: Dict[str, Document] = {}
        vip_count = int(doc_count * vip_fraction)
        for index in range(doc_count):
            url = f"https://site{index % 97:02d}.example.cn/page/{index:07d}"
            tier = QualityTier.VIP if index < vip_count else QualityTier.NON_VIP
            self._documents[url] = Document(
                url=url,
                terms=self.vocabulary.sample_document(doc_length),
                tier=tier,
                modified_round=0,
            )
        #: the corpus never gains or loses a URL, so it is sorted once
        self._urls = sorted(self._documents)

    # ------------------------------------------------------------------
    def document(self, url: str) -> Document:
        """Look up one document."""
        try:
            return self._documents[url]
        except KeyError:
            raise ConfigError(f"no such document: {url!r}") from None

    def documents(self) -> Iterator[Document]:
        """All documents in stable URL order."""
        documents = self._documents
        for url in self._urls:
            yield documents[url]

    # ------------------------------------------------------------------
    def advance_round(self, mutation_rate: float | None = None) -> List[str]:
        """Run one crawl round; returns URLs of modified documents.

        A mutated document has a random ~third of its terms resampled —
        content similar enough to keep the page recognizable (the paper:
        modifications "rarely lead to semantic changes") but its index
        values differ byte-for-byte.
        """
        rate = self.mutation_rate if mutation_rate is None else mutation_rate
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"mutation rate must be in [0,1], got {rate}")
        self.current_round += 1
        modified: List[str] = []
        for url in self._urls:
            if self._random.random() >= rate:
                continue
            document = self._documents[url]
            terms = list(document.terms)
            # Edits are localized, as real page edits are: one contiguous
            # run of ~a third of the document is rewritten, the rest is
            # untouched (this is what makes finer-than-value delta
            # encoding worthwhile downstream).
            replace_count = max(1, len(terms) // 3)
            start = self._random.randrange(max(1, len(terms) - replace_count + 1))
            for position in range(start, min(len(terms), start + replace_count)):
                terms[position] = self.vocabulary.sample()
            document.terms = tuple(terms)
            document.modified_round = self.current_round
            modified.append(url)
        return modified
