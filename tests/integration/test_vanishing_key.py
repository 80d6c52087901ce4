"""A key that vanishes and returns unchanged must stay readable.

Regression for a dedup hole the repo benchmark found: the deduplicator
remembered the signature of a key that was absent from newer versions.
Once the key's last stored value had been evicted (``max_live_versions``
versions later) and its segment collected, the key returning with the
same value was shipped value-less, and every read of it raised
``KeyNotFoundError("dedup chain … reaches no stored value")``.
"""

from repro.core.config import DirectLoadConfig
from repro.core.directload import DirectLoad
from repro.indexing.types import IndexEntry, IndexKind
from repro.mint.cluster import MintConfig

TERM = b"vanishing-term"
POSTINGS = b"doc-17,doc-42;" * 40


def test_key_back_after_its_base_was_evicted_and_collected():
    config = DirectLoadConfig(
        doc_count=60,
        vocabulary_size=400,
        doc_length=20,
        # fat values: ~2 MB per version on every node, so the 4 MB AOF
        # segments roll and the one holding version 1 can be collected
        summary_value_bytes=16 * 1024,
        forward_value_bytes=32 * 1024,
        slice_bytes=64 * 1024,
        generation_window_s=30.0,
        mint=MintConfig(
            group_count=1, nodes_per_group=3,
            node_capacity_bytes=96 * 1024 * 1024,
        ),
    )
    system = DirectLoad(config)
    back_at = config.max_live_versions + 3  # absent for max_live + 1 versions
    build = system.pipeline.build_version

    def build_with_term():
        dataset = build()
        if dataset.version in (1, back_at):
            dataset.add(IndexEntry(IndexKind.INVERTED, TERM, POSTINGS))
        return dataset

    system.pipeline.build_version = build_with_term

    for _ in range(back_at - 1):
        system.run_update_cycle(mutation_rate=0.9)
    assert 1 not in system.versions.live_versions
    # Where the lazy GC has not yet collected the segment that held
    # version 1, do it now: nothing newer refers to the term's record.
    for cluster in system.clusters.values():
        for node in cluster.all_nodes:
            engine = node.engine
            if any(s.segment_id == 0 for s in engine.aofs.segments):
                engine.collect_segment(0)
            assert engine.memtable.get(b"I:" + TERM, 1) is None

    report = system.run_update_cycle(mutation_rate=0.9)
    assert report.version == back_at
    for dc in system.topology.all_data_centers():
        assert system.query(dc, IndexKind.INVERTED, TERM) == POSTINGS
