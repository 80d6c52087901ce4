"""Index building: the workload substrate of the paper's Section 1.1.1.

Baidu's pipeline crawls web pages and produces three key-value index
families:

* **forward** indices ``<URL, terms>``;
* **inverted** indices ``<term, URLs>``;
* **summary** indices ``<URL, abstract>``.

We cannot use the production corpus, so :class:`SyntheticWebCorpus`
synthesizes it: documents draw Zipf-distributed terms from a fixed
vocabulary and mutate round-by-round at a controllable rate — the knob
that produces the paper's "~70% of index data identical between
consecutive versions".  The crawler fetches only documents modified since
the last round, and the builders emit versioned index datasets.
"""

from repro.indexing.builders import (
    ForwardIndexBuilder,
    IndexBuildPipeline,
    InvertedIndexBuilder,
    SummaryIndexBuilder,
)
from repro.indexing.corpus import SyntheticWebCorpus
from repro.indexing.crawler import Crawler
from repro.indexing.types import Document, IndexDataset, IndexEntry, IndexKind
from repro.indexing.vocabulary import ZipfVocabulary

__all__ = [
    "Crawler",
    "Document",
    "ForwardIndexBuilder",
    "IndexBuildPipeline",
    "IndexDataset",
    "IndexEntry",
    "IndexKind",
    "InvertedIndexBuilder",
    "SummaryIndexBuilder",
    "SyntheticWebCorpus",
    "ZipfVocabulary",
]
