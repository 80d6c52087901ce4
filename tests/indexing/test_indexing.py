"""Unit tests for vocabulary, corpus, and crawler."""

import pytest

from repro.errors import ConfigError
from repro.indexing.corpus import SyntheticWebCorpus
from repro.indexing.crawler import Crawler
from repro.indexing.types import QualityTier
from repro.indexing.vocabulary import ZipfVocabulary


# ---------------------------------------------------------------- vocabulary
def test_vocabulary_terms_are_ranked():
    vocab = ZipfVocabulary(100)
    assert vocab._terms[0] == "term000000"
    assert len(vocab) == 100


def test_vocabulary_sampling_is_skewed():
    vocab = ZipfVocabulary(1000, exponent=1.2, seed=1)
    samples = [vocab.sample() for _ in range(5000)]
    top_terms = {vocab._terms[rank] for rank in range(10)}
    top_share = sum(1 for s in samples if s in top_terms) / len(samples)
    assert top_share > 0.3  # head terms dominate under Zipf


def test_vocabulary_deterministic_by_seed():
    a = ZipfVocabulary(500, seed=7)
    b = ZipfVocabulary(500, seed=7)
    assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]


def test_vocabulary_document_sampling():
    vocab = ZipfVocabulary(100)
    doc = vocab.sample_document(30)
    assert len(doc) == 30
    with pytest.raises(ConfigError):
        vocab.sample_document(0)


def test_vocabulary_validation():
    with pytest.raises(ConfigError):
        ZipfVocabulary(0)
    with pytest.raises(ConfigError):
        ZipfVocabulary(10, exponent=0)


# -------------------------------------------------------------------- corpus
def test_corpus_creates_documents_with_tiers():
    corpus = SyntheticWebCorpus(doc_count=100, vip_fraction=0.2, seed=1)
    docs = list(corpus.documents())
    assert len(docs) == 100
    vip = sum(1 for d in docs if d.tier is QualityTier.VIP)
    assert vip == 20


def test_corpus_urls_unique_and_stable_order():
    corpus = SyntheticWebCorpus(doc_count=50, seed=1)
    urls = [d.url for d in corpus.documents()]
    assert len(set(urls)) == 50
    assert urls == sorted(urls)


def test_corpus_mutation_rate_controls_change_fraction():
    corpus = SyntheticWebCorpus(doc_count=1000, mutation_rate=0.3, seed=2)
    modified = corpus.advance_round()
    assert 0.2 < len(modified) / 1000 < 0.4


def test_corpus_zero_mutation_changes_nothing():
    corpus = SyntheticWebCorpus(doc_count=100, mutation_rate=0.0, seed=3)
    assert corpus.advance_round() == []


def test_corpus_full_mutation_changes_everything():
    corpus = SyntheticWebCorpus(doc_count=50, seed=3)
    assert len(corpus.advance_round(mutation_rate=1.0)) == 50


def test_mutated_documents_keep_most_terms():
    corpus = SyntheticWebCorpus(doc_count=20, doc_length=90, seed=4)
    before = {d.url: list(d.terms) for d in corpus.documents()}
    modified = corpus.advance_round(mutation_rate=1.0)
    for url in modified:
        after = corpus.document(url).terms
        same = sum(1 for a, b in zip(before[url], after) if a == b)
        assert same >= len(after) // 2  # similar, not rewritten


def test_corpus_round_override_does_not_stick():
    corpus = SyntheticWebCorpus(doc_count=200, mutation_rate=0.1, seed=5)
    corpus.advance_round(mutation_rate=1.0)
    assert corpus.mutation_rate == 0.1


def test_corpus_lookup_missing_url():
    corpus = SyntheticWebCorpus(doc_count=5, seed=1)
    with pytest.raises(ConfigError):
        corpus.document("https://nope.example/")


def test_corpus_validation():
    with pytest.raises(ConfigError):
        SyntheticWebCorpus(doc_count=0)
    with pytest.raises(ConfigError):
        SyntheticWebCorpus(doc_count=10, mutation_rate=1.5)
    with pytest.raises(ConfigError):
        SyntheticWebCorpus(doc_count=10, vip_fraction=-0.1)


# ------------------------------------------------------------------- crawler
def test_crawler_fetches_everything_initially():
    corpus = SyntheticWebCorpus(doc_count=30, seed=1)
    crawler = Crawler(corpus)
    assert len(crawler.crawl()) == 30  # everything modified at round 0


def test_crawler_fetches_only_modified_since():
    corpus = SyntheticWebCorpus(doc_count=100, seed=1)
    crawler = Crawler(corpus)
    crawler.crawl()
    assert crawler.crawl() == []  # nothing changed since
    modified = corpus.advance_round(mutation_rate=0.2)
    fetched = crawler.crawl()
    assert sorted(d.url for d in fetched) == sorted(modified)


def test_crawler_counters():
    corpus = SyntheticWebCorpus(doc_count=10, doc_length=8, seed=1)
    crawler = Crawler(corpus)
    crawler.full_crawl()
    assert crawler.fetched_documents == 10
    assert crawler.fetched_terms == 80
