"""Unit tests for the index builders and the build pipeline."""

import pytest

from repro.indexing.builders import (
    ForwardIndexBuilder,
    IndexBuildPipeline,
    InvertedIndexBuilder,
    PipelineConfig,
    SummaryIndexBuilder,
    _padded,
)
from repro.indexing.corpus import SyntheticWebCorpus
from repro.indexing.types import Document, IndexKind, QualityTier


def doc(url, terms, round_=0):
    return Document(url=url, terms=terms, tier=QualityTier.VIP, modified_round=round_)


def test_padding_is_deterministic_and_sized():
    a = _padded(b"content", 100)
    b = _padded(b"content", 100)
    assert a == b
    assert len(a) == 100
    assert a.startswith(b"content")
    assert _padded(b"different", 100) != a
    assert _padded(b"big" * 100, 10) == b"big" * 100  # never truncates


def test_forward_builder():
    builder = ForwardIndexBuilder()
    entries = builder.build([doc("u1", ["a", "b"]), doc("u2", ["c"])])
    assert [e.key for e in entries] == [b"u1", b"u2"]
    assert entries[0].value == b"a b"
    assert all(e.kind is IndexKind.FORWARD for e in entries)


def test_summary_builder_uses_abstract():
    builder = SummaryIndexBuilder()
    terms = [f"t{i}" for i in range(50)]
    entries = builder.build([doc("u1", terms)])
    assert entries[0].value == " ".join(terms[:24]).encode()
    assert entries[0].kind is IndexKind.SUMMARY


def test_builders_pad_to_target():
    builder = SummaryIndexBuilder(value_bytes=500)
    entries = builder.build([doc("u1", ["x"])])
    assert len(entries[0].value) == 500


def test_inverted_builder_incremental_updates():
    builder = InvertedIndexBuilder()
    builder.update([doc("u1", ["apple", "pear"]), doc("u2", ["apple"])])
    entries = {e.key: e.value for e in builder.build()}
    assert entries[b"apple"] == b"u1\nu2"
    assert entries[b"pear"] == b"u1"

    # u1 drops "pear", gains "plum".
    affected = builder.update([doc("u1", ["apple", "plum"], round_=1)])
    assert affected == {"pear", "plum"}
    entries = {e.key: e.value for e in builder.build()}
    assert b"pear" not in entries  # empty posting removed
    assert entries[b"plum"] == b"u1"
    assert entries[b"apple"] == b"u1\nu2"
    assert len(builder._postings) == 2


def test_inverted_update_unchanged_doc_affects_nothing():
    builder = InvertedIndexBuilder()
    builder.update([doc("u1", ["a"])])
    assert builder.update([doc("u1", ["a"], round_=1)]) == set()


def test_pipeline_builds_complete_versions():
    corpus = SyntheticWebCorpus(doc_count=40, doc_length=20, seed=1)
    pipeline = IndexBuildPipeline(corpus)
    v1 = pipeline.build_version()
    assert v1.version == 1
    assert len(v1.of_kind(IndexKind.FORWARD)) == 40
    assert len(v1.of_kind(IndexKind.SUMMARY)) == 40
    assert len(v1.of_kind(IndexKind.INVERTED)) > 0
    v2 = pipeline.advance_and_build()
    assert v2.version == 2
    # A version is always complete: every document represented.
    assert len(v2.of_kind(IndexKind.FORWARD)) == 40


def test_pipeline_unchanged_docs_produce_identical_entries():
    corpus = SyntheticWebCorpus(doc_count=30, doc_length=20, seed=2)
    pipeline = IndexBuildPipeline(corpus)
    v1 = {e.key: e.value for e in pipeline.build_version().of_kind(IndexKind.FORWARD)}
    corpus.advance_round(mutation_rate=0.0)
    v2 = {e.key: e.value for e in pipeline.build_version().of_kind(IndexKind.FORWARD)}
    assert v1 == v2


def test_dataset_accounting():
    corpus = SyntheticWebCorpus(doc_count=10, doc_length=10, seed=3)
    pipeline = IndexBuildPipeline(
        corpus, PipelineConfig(summary_value_bytes=256, forward_value_bytes=128)
    )
    dataset = pipeline.build_version()
    assert dataset.entry_count == sum(len(e) for e in dataset.entries.values())
    assert dataset.total_bytes > 10 * (256 + 128)


def test_pipeline_config_validation():
    with pytest.raises(Exception):
        PipelineConfig(summary_value_bytes=-1)
