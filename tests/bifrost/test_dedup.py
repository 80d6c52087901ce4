"""Unit + property tests for signatures and deduplication."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bifrost.dedup import Deduplicator
from repro.bifrost.signature import checksum, signature
from repro.indexing.types import IndexDataset, IndexEntry, IndexKind


def dataset(version, pairs, kind=IndexKind.FORWARD):
    built = IndexDataset(version=version)
    for key, value in pairs:
        built.add(IndexEntry(kind, key, value))
    return built


def test_signature_is_content_addressed():
    assert signature(b"abc") == signature(b"abc")
    assert signature(b"abc") != signature(b"abd")
    assert len(signature(b"")) == 16


def test_checksum_detects_change():
    assert checksum(b"payload") != checksum(b"payloae")


def test_first_version_nothing_deduplicated():
    dedup = Deduplicator()
    result = dedup.process(dataset(1, [(b"k1", b"v1"), (b"k2", b"v2")]))
    assert result.dedup_ratio == 0.0
    assert result.bytes_saved == 0
    assert all(e.value is not None for e in result.dataset.of_kind(IndexKind.FORWARD))


def test_unchanged_values_stripped_in_next_version():
    dedup = Deduplicator()
    dedup.process(dataset(1, [(b"k1", b"same"), (b"k2", b"old")]))
    result = dedup.process(dataset(2, [(b"k1", b"same"), (b"k2", b"new")]))
    entries = {e.key: e.value for e in result.dataset.of_kind(IndexKind.FORWARD)}
    assert entries[b"k1"] is None
    assert entries[b"k2"] == b"new"
    assert result.deduplicated_entries == 1
    assert result.dedup_ratio == 0.5
    assert result.bytes_saved > 0


def test_comparison_is_against_immediate_predecessor():
    dedup = Deduplicator()
    dedup.process(dataset(1, [(b"k", b"A")]))
    dedup.process(dataset(2, [(b"k", b"B")]))
    # Version 3 returns to the value of version 1 — still a change vs v2?
    # No: the store now holds B, so A differs and must be sent.
    result = dedup.process(dataset(3, [(b"k", b"A")]))
    assert result.deduplicated_entries == 0


def test_key_absent_from_a_version_ships_its_value_when_it_returns():
    """Only the immediate predecessor vouches for a value: by the time a
    vanished key returns, the stores may have collected its old record."""
    dedup = Deduplicator()
    dedup.process(dataset(1, [(b"k", b"A"), (b"stay", b"S")]))
    gap = dedup.process(dataset(2, [(b"stay", b"S")]))
    assert gap.deduplicated_entries == 1
    # exactly one key is remembered across all kinds' tables: b"stay"
    remembered = [key for table in dedup._signatures.values() for key in table]
    assert remembered == [b"stay"]
    result = dedup.process(dataset(3, [(b"k", b"A"), (b"stay", b"S")]))
    entries = {e.key: e.value for e in result.dataset.of_kind(IndexKind.FORWARD)}
    assert entries == {b"k": b"A", b"stay": None}


def test_same_key_different_kinds_do_not_collide():
    dedup = Deduplicator()
    built = IndexDataset(version=1)
    built.add(IndexEntry(IndexKind.FORWARD, b"k", b"v"))
    built.add(IndexEntry(IndexKind.SUMMARY, b"k", b"v"))
    dedup.process(built)
    second = IndexDataset(version=2)
    second.add(IndexEntry(IndexKind.FORWARD, b"k", b"v"))
    second.add(IndexEntry(IndexKind.SUMMARY, b"k", b"changed"))
    result = dedup.process(second)
    assert result.deduplicated_entries == 1


def test_valueless_input_rejected():
    dedup = Deduplicator()
    bad = IndexDataset(version=1)
    bad.add(IndexEntry(IndexKind.FORWARD, b"k", None))
    with pytest.raises(ValueError):
        dedup.process(bad)


def test_bandwidth_saving_ratio_tracks_value_sizes():
    dedup = Deduplicator()
    dedup.process(dataset(1, [(b"k", b"x" * 10_000)]))
    result = dedup.process(dataset(2, [(b"k", b"x" * 10_000)]))
    # Only key + framing travels: saving close to 1.
    assert result.bandwidth_saving_ratio > 0.95


def test_paper_dedup_ratio_with_70_percent_duplicates():
    dedup = Deduplicator()
    pairs_v1 = [(f"k{i:03d}".encode(), b"v1") for i in range(100)]
    dedup.process(dataset(1, pairs_v1))
    pairs_v2 = [
        (f"k{i:03d}".encode(), b"v1" if i < 70 else b"v2") for i in range(100)
    ]
    result = dedup.process(dataset(2, pairs_v2))
    assert result.dedup_ratio == pytest.approx(0.70)


@given(
    values_v1=st.lists(st.binary(min_size=1, max_size=40), min_size=1, max_size=30),
    flip=st.lists(st.booleans(), min_size=1, max_size=30),
)
def test_property_dedup_count_matches_equality(values_v1, flip):
    dedup = Deduplicator()
    keys = [f"key-{i}".encode() for i in range(len(values_v1))]
    dedup.process(dataset(1, list(zip(keys, values_v1))))
    values_v2 = [
        value if keep else value + b"!"
        for value, keep in zip(values_v1, flip + [True] * len(values_v1))
    ]
    result = dedup.process(dataset(2, list(zip(keys, values_v2))))
    expected = sum(1 for a, b in zip(values_v1, values_v2) if a == b)
    assert result.deduplicated_entries == expected


# ------------------------------------------------- build-time signatures
def signed_dataset(version, pairs, kind=IndexKind.FORWARD):
    built = IndexDataset(version=version)
    for key, value in pairs:
        built.add(IndexEntry(kind, key, value, signature=signature(value)))
    return built


def test_build_time_signature_spares_rehash():
    dedup = Deduplicator()
    pairs = [(b"k1", b"same"), (b"k2", b"old")]
    first = dedup.process(signed_dataset(1, pairs))
    second = dedup.process(signed_dataset(2, [(b"k1", b"same"), (b"k2", b"new")]))
    assert first.hashes_avoided == 2
    assert second.hashes_avoided == 2
    assert dedup.hashes_avoided == 4
    assert second.deduplicated_entries == 1


def test_signature_less_entries_still_deduplicate():
    dedup = Deduplicator()
    dedup.process(dataset(1, [(b"k", b"v")]))
    result = dedup.process(dataset(2, [(b"k", b"v")]))
    assert result.deduplicated_entries == 1
    assert result.hashes_avoided == 0
    assert dedup.hashes_avoided == 0


def test_signed_and_unsigned_paths_agree():
    """The carried signature is just a cache: same dedup outcome."""
    v1 = [(b"a", b"one"), (b"b", b"two")]
    v2 = [(b"a", b"one"), (b"b", b"changed")]
    signed, unsigned = Deduplicator(), Deduplicator()
    signed.process(signed_dataset(1, v1))
    unsigned.process(dataset(1, v1))
    signed_result = signed.process(signed_dataset(2, v2))
    unsigned_result = unsigned.process(dataset(2, v2))
    assert signed_result.deduplicated_entries == unsigned_result.deduplicated_entries
    assert [e.value for e in signed_result.dataset.of_kind(IndexKind.FORWARD)] == [
        e.value for e in unsigned_result.dataset.of_kind(IndexKind.FORWARD)
    ]


def test_pipeline_entries_carry_signatures():
    """The index builders stamp every entry at build time."""
    from repro.indexing.builders import ForwardIndexBuilder
    from repro.indexing.types import Document, QualityTier

    document = Document(
        url="u", terms=["alpha", "beta"], tier=QualityTier.VIP, modified_round=0
    )
    [entry] = ForwardIndexBuilder().build([document])
    assert entry.signature == signature(entry.value)
