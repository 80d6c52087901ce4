"""Property tests for the memtable: the version-neighbourhood walks, and
a model test of every operation against ``dict`` + ``sorted()``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError
from repro.qindb.memtable import Memtable

KEYS = [b"a", b"ab", b"b"]


@settings(max_examples=60, deadline=None)
@given(
    entries=st.sets(
        st.tuples(
            st.sampled_from(KEYS), st.integers(min_value=0, max_value=50)
        ),
        max_size=60,
    ),
    probe_key=st.sampled_from(KEYS),
    probe_version=st.integers(min_value=0, max_value=50),
)
def test_property_version_walks_match_model(entries, probe_key, probe_version):
    memtable = Memtable()
    for key, version in entries:
        memtable.put(key, version, (0, 0, 1), deduplicated=False)

    model = sorted(v for k, v in entries if k == probe_key)

    older = [v for v, _item in memtable.older_versions(probe_key, probe_version)]
    assert older == [v for v in reversed(model) if v < probe_version]

    newer = [v for v, _item in memtable.newer_versions(probe_key, probe_version)]
    assert newer == [v for v in model if v > probe_version]

    all_versions = [v for v, _item in memtable.versions_of(probe_key)]
    assert all_versions == model

    latest = memtable.latest_version(probe_key)
    assert (latest[0] if latest else None) == (model[-1] if model else None)


@settings(max_examples=40, deadline=None)
@given(
    entries=st.sets(
        st.tuples(
            st.sampled_from(KEYS), st.integers(min_value=0, max_value=30)
        ),
        min_size=1,
        max_size=40,
    ),
    low=st.sampled_from(KEYS),
    high=st.sampled_from(KEYS),
)
def test_property_scan_matches_model(entries, low, high):
    memtable = Memtable()
    for key, version in entries:
        memtable.put(key, version, (0, 0, 1), deduplicated=False)
    scanned = [(k, v) for k, v, _item in memtable.scan(low, high)]
    expected = sorted((k, v) for k, v in entries if low <= k < high)
    assert scanned == expected


# ------------------------------------------------- model: dict + sorted()
ITEM_KEYS = st.tuples(
    st.sampled_from(KEYS), st.integers(min_value=0, max_value=12)
)
OPS = st.one_of(
    # a batch may repeat a (key, version): last writer wins
    st.tuples(
        st.just("put_batch"),
        st.lists(st.tuples(ITEM_KEYS, st.booleans()), max_size=8),
    ),
    st.tuples(st.just("drop"), ITEM_KEYS),
    st.tuples(st.just("mark_deleted"), ITEM_KEYS),
    # a batch may repeat a (key, version) or name an absent one
    st.tuples(st.just("mark_deleted_batch"), st.lists(ITEM_KEYS, max_size=6)),
    st.tuples(st.just("relocate"), ITEM_KEYS),
)


def check_against_model(memtable, model, probe_key, probe_version):
    """Every ordered walk agrees with ``sorted()`` over the model dict."""
    ordered = sorted(model)
    assert len(memtable) == len(model)
    assert [(k, v, item) for k, v, item in memtable.items()] == [
        (k, v, model[(k, v)]) for k, v in ordered
    ]
    assert memtable.approximate_bytes == sum(len(k) + 48 for k, _v in model)
    chain = [(v, model[(k, v)]) for k, v in ordered if k == probe_key]
    assert list(memtable.versions_of(probe_key)) == chain
    assert memtable.latest_version(probe_key) == (chain[-1] if chain else None)
    older = [(v, item) for v, item in reversed(chain) if v < probe_version]
    assert list(memtable.older_versions(probe_key, probe_version)) == older
    assert list(memtable.newer_versions(probe_key, probe_version)) == [
        (v, item) for v, item in chain if v > probe_version
    ]
    for low in KEYS:
        for high in KEYS:
            assert list(memtable.scan(low, high)) == [
                (k, v, model[(k, v)]) for k, v in ordered if low <= k < high
            ]
    item = model.get((probe_key, probe_version))
    base, hops = None, 0
    if item is not None and item[1]:  # deduplicated
        for _version, candidate in older:
            hops += 1
            if not candidate[1]:  # carries a value
                base = candidate
                break
    assert memtable.resolve(probe_key, probe_version) == (item, base)
    assert memtable.last_search_steps == len(model).bit_length() + hops
    assert memtable.get(probe_key, probe_version) is item


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(OPS, max_size=25),
    probe_key=st.sampled_from(KEYS),
    probe_version=st.integers(min_value=0, max_value=12),
)
def test_property_memtable_matches_dict_and_sorted(
    ops, probe_key, probe_version
):
    memtable = Memtable()
    model = {}
    for sequence, (action, argument) in enumerate(ops):
        if action == "put_batch":
            pairs = [
                (item_key, ((0, sequence, 1), dedup, False, 0))
                for item_key, dedup in argument
            ]
            expected = []
            for item_key, item in pairs:
                expected.append(model.get(item_key))
                model[item_key] = item
            previous = memtable.put_batch_pairs(pairs)
            assert len(previous) == len(expected)
            assert all(a is b for a, b in zip(previous, expected))
        elif action == "drop":
            if argument in model:
                del model[argument]
                memtable.drop(*argument)
            else:
                with pytest.raises(KeyNotFoundError):
                    memtable.drop(*argument)
        elif action == "mark_deleted":
            before = model.get(argument)
            item = memtable.mark_deleted(*argument)
            if before is None:
                assert item is None
            else:
                location, dedup, _deleted, sequence = before
                assert item == (location, dedup, True, sequence)
                model[argument] = item  # the walks must yield this object
        elif action == "mark_deleted_batch":
            marked = memtable.mark_deleted_batch(argument)
            assert len(marked) == len(argument)
            for item_key, item in zip(argument, marked):
                before = model.get(item_key)
                if before is None:
                    assert item is None
                else:
                    location, dedup, _deleted, sequence = before
                    assert item == (location, dedup, True, sequence)
                    model[item_key] = item
            assert memtable.last_search_steps == len(model).bit_length() + max(
                len(argument) - 1, 0
            )
        else:
            location = (1, sequence, 2)
            if argument in model:
                _old, dedup, deleted, item_sequence = model[argument]
                moved = memtable.relocate(argument, location)
                assert moved == (location, dedup, deleted, item_sequence)
                model[argument] = moved
            else:
                with pytest.raises(KeyError):
                    memtable.relocate(argument, location)
        # walks interleave with the mutations, so a pending re-sort, a
        # drop from the sorted list and a re-put of a dropped key all
        # get exercised
        check_against_model(memtable, model, probe_key, probe_version)
