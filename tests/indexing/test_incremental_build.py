"""Differential test: the incremental build DC against rebuilding everything.

The builders keep each document's and term's entry across versions and
rebuild only what a version's changes touch; the deduplicator keeps one
signature table per kind.  The reference below is the plain design they replaced, kept here: every
version re-expands, re-signs and re-sorts every entry, and dedup keys one
table by ``(kind, key)``.  Both sides run on twin corpora (same seed, so
the same edits), and every version's dataset and ``DedupResult`` must be
equal entry for entry, signatures included.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.dedup import DedupResult, Deduplicator
from repro.bifrost.signature import signature
from repro.errors import ConfigError
from repro.indexing.builders import IndexBuildPipeline, PipelineConfig, _expanded
from repro.indexing.corpus import SyntheticWebCorpus
from repro.indexing.types import (
    Document,
    IndexDataset,
    IndexEntry,
    IndexKind,
    QualityTier,
)
from repro.indexing.vocabulary import ZipfVocabulary


# ---------------------------------------------------------------- reference
class ReferenceCorpus(SyntheticWebCorpus):
    """Sorts its URLs on every walk, as the corpus once did."""

    def documents(self):
        for url in sorted(self._documents):
            yield self._documents[url]

    def advance_round(self, mutation_rate=None):
        rate = self.mutation_rate if mutation_rate is None else mutation_rate
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"mutation rate must be in [0,1], got {rate}")
        self.current_round += 1
        modified = []
        for url in sorted(self._documents):
            if self._random.random() >= rate:
                continue
            document = self._documents[url]
            terms = list(document.terms)
            replace_count = max(1, len(terms) // 3)
            start = self._random.randrange(max(1, len(terms) - replace_count + 1))
            for position in range(start, min(len(terms), start + replace_count)):
                terms[position] = self.vocabulary.sample()
            document.terms = terms
            document.modified_round = self.current_round
            modified.append(url)
        return modified


class ReferencePipeline:
    """Rebuild every entry of every version from scratch."""

    def __init__(self, corpus: SyntheticWebCorpus, config: PipelineConfig) -> None:
        self.corpus = corpus
        self.config = config
        self.postings: Dict[str, Set[str]] = {}
        self.indexed: Dict[str, Set[str]] = {}
        self.version = 0
        self.last_crawled = -1

    def _update(self, documents) -> None:
        for document in documents:
            new_terms = set(document.terms)
            old_terms = self.indexed.get(document.url, set())
            for term in old_terms - new_terms:
                posting = self.postings[term]
                posting.discard(document.url)
                if not posting:
                    del self.postings[term]
            for term in new_terms - old_terms:
                self.postings.setdefault(term, set()).add(document.url)
            self.indexed[document.url] = new_terms

    def build_version(self) -> IndexDataset:
        self.version += 1
        changed = [
            document
            for document in self.corpus.documents()
            if self.version == 1 or document.modified_round > self.last_crawled
        ]
        self.last_crawled = self.corpus.current_round
        self._update(changed)
        dataset = IndexDataset(version=self.version)
        for document in self.corpus.documents():
            value = _expanded(
                document.terms,
                self.config.forward_value_bytes,
                " ".join(document.terms).encode(),
            )
            dataset.add(IndexEntry(
                IndexKind.FORWARD, document.url.encode(), value,
                signature=signature(value),
            ))
        for document in self.corpus.documents():
            value = _expanded(
                document.terms,
                self.config.summary_value_bytes,
                document.abstract.encode(),
            )
            dataset.add(IndexEntry(
                IndexKind.SUMMARY, document.url.encode(), value,
                signature=signature(value),
            ))
        for term in sorted(self.postings):
            urls = "\n".join(sorted(self.postings[term])).encode()
            dataset.add(IndexEntry(
                IndexKind.INVERTED, term.encode(), urls,
                signature=signature(urls),
            ))
        return dataset

    def advance_and_build(self, rate: float) -> IndexDataset:
        self.corpus.advance_round(rate)
        return self.build_version()


class ReferenceDeduplicator:
    """One ``(kind, key) -> signature`` table, immediate predecessor only."""

    def __init__(self) -> None:
        self.signatures: Dict[Tuple[IndexKind, bytes], bytes] = {}

    def forget(self) -> None:
        self.signatures = {}

    def process(self, dataset: IndexDataset) -> DedupResult:
        output = IndexDataset(version=dataset.version)
        total = deduplicated = before = after = avoided = 0
        current: Dict[Tuple[IndexKind, bytes], bytes] = {}
        for kind in IndexKind:
            for entry in dataset.of_kind(kind):
                total += 1
                before += entry.wire_bytes
                if entry.signature is not None:
                    sig = entry.signature
                    avoided += 1
                else:
                    sig = signature(entry.value)
                if self.signatures.get((kind, entry.key)) == sig:
                    entry = entry.deduplicated()
                    deduplicated += 1
                output.add(entry)
                after += entry.wire_bytes
                current[(kind, entry.key)] = sig
        self.signatures = current
        return DedupResult(output, total, deduplicated, before, after, avoided)


# ---------------------------------------------------------------- comparison
def rows(dataset: IndexDataset) -> Dict[IndexKind, List[tuple]]:
    """Every entry as a tuple, signature included (equality skips it)."""
    return {
        kind: [(e.kind, e.key, e.value, e.signature) for e in entries]
        for kind, entries in dataset.entries.items()
    }


def assert_same_result(got: DedupResult, want: DedupResult) -> None:
    assert rows(got.dataset) == rows(want.dataset)
    assert got.dataset.version == want.dataset.version
    assert (
        got.total_entries, got.deduplicated_entries, got.bytes_before,
        got.bytes_after, got.hashes_avoided,
    ) == (
        want.total_entries, want.deduplicated_entries, want.bytes_before,
        want.bytes_after, want.hashes_avoided,
    )


def twins(
    seed: int, docs: int, length: int, vocabulary: int, config: PipelineConfig
):
    def corpus(cls):
        return cls(
            doc_count=docs,
            vocabulary=ZipfVocabulary(vocabulary, seed=seed),
            doc_length=length,
            seed=seed,
        )

    return (
        IndexBuildPipeline(corpus(SyntheticWebCorpus), config),
        ReferencePipeline(corpus(ReferenceCorpus), config),
    )


def run_schedule(
    pipeline, reference, steps: List[Tuple[float, bool]]
) -> None:
    """Build and dedup version 1, then one version per ``(rate, forget)``
    step on both sides; every dataset and result must agree."""
    dedup, reference_dedup = Deduplicator(), ReferenceDeduplicator()
    got, want = pipeline.build_version(), reference.build_version()
    assert rows(got) == rows(want)
    assert_same_result(dedup.process(got), reference_dedup.process(want))
    for rate, forget in steps:
        if forget:
            dedup.forget()
            reference_dedup.forget()
        got = pipeline.advance_and_build(rate)
        want = reference.advance_and_build(rate)
        assert got.version == want.version
        assert rows(got) == rows(want)
        assert_same_result(dedup.process(got), reference_dedup.process(want))


def test_seeded_corpora_match_the_rebuild_at_every_rate():
    for rate in (0.0, 0.3, 1.0):
        config = PipelineConfig(forward_value_bytes=192, summary_value_bytes=320)
        pipeline, reference = twins(
            seed=11, docs=120, length=24, vocabulary=400, config=config
        )
        run_schedule(pipeline, reference, [(rate, False)] * 4)


def test_mixed_rates_and_a_forgotten_predecessor_match():
    pipeline, reference = twins(
        seed=5, docs=60, length=12, vocabulary=50, config=PipelineConfig()
    )
    run_schedule(
        pipeline, reference,
        [(0.3, False), (1.0, False), (0.0, True), (0.3, False), (0.0, False)],
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    steps=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
            st.sampled_from([False, False, False, True]),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_hypothesis_schedules_over_a_small_vocabulary(seed, steps):
    """Eight short documents over eight terms: terms vanish from every
    posting and come back."""
    pipeline, reference = twins(
        seed=seed, docs=8, length=3, vocabulary=8,
        config=PipelineConfig(forward_value_bytes=80),
    )
    run_schedule(pipeline, reference, steps)


def test_small_vocabulary_schedule_vanishes_and_returns_terms():
    """The Hypothesis shape does make terms vanish and return."""
    pipeline, _ = twins(
        seed=3, docs=8, length=3, vocabulary=8, config=PipelineConfig()
    )
    seen: List[Set[bytes]] = []
    for step in range(12):
        dataset = (
            pipeline.build_version() if step == 0
            else pipeline.advance_and_build(0.6)
        )
        seen.append({e.key for e in dataset.of_kind(IndexKind.INVERTED)})
        # a vanished term's entry leaves the memo; documents never outgrow it
        inverted = pipeline.inverted
        assert set(inverted._entries) == set(inverted._postings)
        assert len(pipeline.forward._built) == len(pipeline.summary._built) == 8
    vanished_then_back = [
        term
        for index in range(1, len(seen) - 1)
        for term in seen[index - 1] - seen[index]
        if any(term in later for later in seen[index + 1:])
    ]
    assert vanished_then_back


# ---------------------------------------------------------------- reuse pins
def test_document_terms_are_replaced_never_edited_in_place():
    """The forward and summary memos take the same ``terms`` object to
    mean the same content, so the type rules out an in-place edit."""
    corpus = SyntheticWebCorpus(doc_count=10, doc_length=6, seed=2)
    before = {d.url: d.terms for d in corpus.documents()}
    changed = corpus.advance_round(1.0)
    assert changed
    for document in corpus.documents():
        assert isinstance(document.terms, tuple)
        assert document.terms is not before[document.url]
    document = next(corpus.documents())
    with pytest.raises(TypeError):
        document.terms[0] = "edited"
    with pytest.raises(AttributeError):
        document.terms.append("edited")
    assert Document("u", ["a", "b"], QualityTier.VIP, 0).terms == ("a", "b")


def test_unchanged_entries_are_the_previous_versions_objects():
    corpus = SyntheticWebCorpus(doc_count=50, doc_length=16, seed=9)
    pipeline = IndexBuildPipeline(corpus)
    first = pipeline.build_version()
    changed = set(corpus.advance_round(0.3))
    second = pipeline.build_version()
    assert changed
    for kind in (IndexKind.FORWARD, IndexKind.SUMMARY):
        for old, new in zip(first.of_kind(kind), second.of_kind(kind)):
            assert (old is new) == (new.key.decode() not in changed)
    counts = {
        name: (builder.rebuilt, builder.reused)
        for name, builder in (
            ("forward", pipeline.forward), ("summary", pipeline.summary),
        )
    }
    assert counts == {
        "forward": (50 + len(changed), 50 - len(changed)),
        "summary": (50 + len(changed), 50 - len(changed)),
    }
    inverted = pipeline.inverted
    assert inverted.rebuilt + inverted.reused == len(
        first.of_kind(IndexKind.INVERTED)
    ) + len(second.of_kind(IndexKind.INVERTED))


def test_pipeline_registers_rebuilt_and_reused_views():
    from repro.obs.registry import MetricsRegistry

    corpus = SyntheticWebCorpus(doc_count=20, doc_length=8, seed=4)
    pipeline = IndexBuildPipeline(corpus)
    registry = MetricsRegistry()
    pipeline.register_metrics(registry)
    pipeline.build_version()
    pipeline.advance_and_build(0.0)
    values = registry.collect("indexing")
    assert values["indexing.forward.rebuilt"] == 20
    assert values["indexing.forward.reused"] == 20
    assert values["indexing.summary.reused"] == 20
    assert values["indexing.inverted.rebuilt"] > 0
    assert values["indexing.inverted.reused"] == values["indexing.inverted.rebuilt"]
