"""Unit + property tests for chunk-level delta deduplication."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.chunking import (
    ChunkStore,
    ChunkedDeduplicator,
    DeltaEncodedValue,
    chunk_boundaries,
    chunk_value,
)
from repro.bifrost.signature import signature
from repro.errors import ConfigError, CorruptionError
from repro.indexing.types import IndexDataset, IndexEntry, IndexKind


def dataset(version, pairs, kind=IndexKind.SUMMARY):
    built = IndexDataset(version=version)
    for key, value in pairs:
        built.add(IndexEntry(kind, key, value))
    return built


# ------------------------------------------------------------------ chunking
def test_chunks_cover_data_exactly():
    data = bytes(range(256)) * 40
    spans = list(chunk_boundaries(data))
    assert spans[0][0] == 0
    assert spans[-1][1] == len(data)
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 == s2
    assert b"".join(chunk_value(data)) == data


def test_chunk_sizes_respect_bounds():
    import random

    rng = random.Random(3)
    data = bytes(rng.getrandbits(8) for _ in range(20_000))
    for start, end in chunk_boundaries(data, average_bytes=512, min_bytes=64,
                                       max_bytes=4096):
        size = end - start
        assert size <= 4096
        # Only the final chunk may be under the minimum.
        if end != len(data):
            assert size >= 64


def test_chunking_is_deterministic():
    data = b"deterministic content " * 500
    assert list(chunk_boundaries(data)) == list(chunk_boundaries(data))


def test_chunking_is_insertion_stable():
    """Editing the middle only disturbs nearby chunks (the CDC property)."""
    import random

    rng = random.Random(9)
    base = bytes(rng.getrandbits(8) for _ in range(30_000))
    edited = base[:15_000] + b"XXXXX" + base[15_000:]
    base_signatures = {signature(c) for c in chunk_value(base)}
    edited_chunks = chunk_value(edited)
    reused = sum(1 for c in edited_chunks if signature(c) in base_signatures)
    assert reused / len(edited_chunks) > 0.7


def test_empty_value_has_no_chunks():
    assert chunk_value(b"") == []


def test_chunking_validation():
    with pytest.raises(ConfigError):
        list(chunk_boundaries(b"x", average_bytes=10, min_bytes=20))


# ------------------------------------------------------------- deduplicator
def test_unchanged_values_still_fully_deduplicated():
    dedup = ChunkedDeduplicator()
    dedup.process(dataset(1, [(b"k", b"same-value" * 100)]))
    result = dedup.process(dataset(2, [(b"k", b"same-value" * 100)]))
    assert result.unchanged_entries == 1
    assert result.bandwidth_saving_ratio > 0.9


def test_key_absent_from_a_version_ships_again_when_it_returns():
    """Same predecessor rule as the whole-value deduplicator, per kind
    stream: an unchanged value is stripped only against the version
    immediately before."""
    value = b"same-value" * 100
    dedup = ChunkedDeduplicator()
    dedup.process(dataset(1, [(b"k", value), (b"stay", value)]))
    dedup.process(dataset(2, [(b"stay", value)]))
    result = dedup.process(dataset(3, [(b"k", value), (b"stay", value)]))
    entries = {e.key: e.value for e in result.dataset.of_kind(IndexKind.SUMMARY)}
    assert entries == {b"k": value, b"stay": None}
    assert (IndexKind.SUMMARY, b"k") in result.encodings


def test_partial_modification_saves_most_bytes():
    """The case whole-value dedup cannot help with at all."""
    import random

    rng = random.Random(4)
    base = bytes(rng.getrandbits(8) for _ in range(20_000))
    modified = base[:10_000] + b"!CHANGED!" + base[10_009:]
    dedup = ChunkedDeduplicator()
    dedup.process(dataset(1, [(b"k", base)]))
    result = dedup.process(dataset(2, [(b"k", modified)]))
    assert result.unchanged_entries == 0  # the value did change...
    assert result.bandwidth_saving_ratio > 0.6  # ...but most bytes stay home


def test_shared_chunks_across_keys_deduplicate():
    import random

    rng = random.Random(11)
    shared = bytes(rng.getrandbits(8) for _ in range(40_000))
    dedup = ChunkedDeduplicator()
    first = dedup.process(dataset(1, [(b"k1", shared + b"unique-1")]))
    second = dedup.process(dataset(2, [(b"k2", shared + b"unique-2")]))
    # k2's boilerplate chunks were already shipped for k1.
    assert second.bandwidth_saving_ratio > 0.5


def test_valueless_input_rejected():
    dedup = ChunkedDeduplicator()
    bad = IndexDataset(version=1)
    bad.add(IndexEntry(IndexKind.SUMMARY, b"k", None))
    with pytest.raises(ConfigError):
        dedup.process(bad)


# ------------------------------------------------------------- chunk store
def test_store_roundtrip():
    dedup = ChunkedDeduplicator()
    store = ChunkStore()
    value = b"reassemble me please " * 300
    result = dedup.process(dataset(1, [(b"k", value)]))
    encoding = result.encodings[(IndexKind.SUMMARY, b"k")]
    assert store.absorb(encoding) == value
    assert len(store) == len(set(encoding.recipe))


def test_store_reassembles_from_old_chunks():
    import random

    rng = random.Random(6)
    base = bytes(rng.getrandbits(8) for _ in range(10_000))
    modified = base[:5_000] + b"~" + base[5_000:]
    dedup = ChunkedDeduplicator()
    store = ChunkStore()
    r1 = dedup.process(dataset(1, [(b"k", base)]))
    store.absorb(r1.encodings[(IndexKind.SUMMARY, b"k")])
    r2 = dedup.process(dataset(2, [(b"k", modified)]))
    encoding = r2.encodings[(IndexKind.SUMMARY, b"k")]
    # Far fewer new chunk bytes than the value size...
    new_bytes = sum(len(c) for c in encoding.new_chunks.values())
    assert new_bytes < len(modified) / 2
    # ...yet the store reassembles the exact value.
    assert store.absorb(encoding) == modified


def test_store_detects_corrupt_chunk():
    store = ChunkStore()
    bogus = DeltaEncodedValue(
        recipe=[signature(b"chunk")], new_chunks={signature(b"chunk"): b"tampered"}
    )
    with pytest.raises(CorruptionError):
        store.absorb(bogus)


def test_store_rejects_unknown_recipe_reference():
    store = ChunkStore()
    orphan = DeltaEncodedValue(recipe=[signature(b"missing")], new_chunks={})
    with pytest.raises(CorruptionError):
        store.absorb(orphan)


# ---------------------------------------------------------------- property
@settings(max_examples=50, deadline=None)
@given(value=st.binary(min_size=1, max_size=8192))
def test_property_chunk_roundtrip(value):
    assert b"".join(chunk_value(value)) == value


@settings(max_examples=25, deadline=None)
@given(
    base=st.binary(min_size=100, max_size=4000),
    edit_at=st.floats(min_value=0.0, max_value=1.0),
    insertion=st.binary(min_size=1, max_size=50),
)
def test_property_sender_receiver_agree(base, edit_at, insertion):
    """Whatever the edit, the receiver reassembles byte-identical values."""
    position = int(len(base) * edit_at)
    edited = base[:position] + insertion + base[position:]
    dedup = ChunkedDeduplicator(average_chunk_bytes=128)
    store = ChunkStore()
    r1 = dedup.process(dataset(1, [(b"k", base)]))
    assert store.absorb(r1.encodings[(IndexKind.SUMMARY, b"k")]) == base
    r2 = dedup.process(dataset(2, [(b"k", edited)]))
    assert store.absorb(r2.encodings[(IndexKind.SUMMARY, b"k")]) == edited
