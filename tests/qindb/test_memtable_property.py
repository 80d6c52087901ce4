"""Property tests for the memtable: the version-neighbourhood walks, and
a model test of every operation against ``dict`` + ``sorted()``."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateItemError, KeyNotFoundError
from repro.qindb.memtable import ItemColumns, Memtable

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

    # every item carries a value, so no record is referenced
    assert not memtable.referenced(probe_key, probe_version)


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
    # a batch may repeat a (key, version) or name a held one: refused
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
    older = [(v, item) for v, item in reversed(chain) if v < probe_version]
    assert list(memtable.older_versions(probe_key, probe_version)) == older
    referenced = False  # a live value-less newer item reads through here
    for version, (_location, dedup, deleted, _sequence) in chain:
        if version <= probe_version:
            continue
        if not dedup:
            break
        if not deleted:
            referenced = True
            break
    assert memtable.referenced(probe_key, probe_version) == referenced
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
    if item is None or item[2]:  # absent, or the d flag
        reads = None
    elif item[1]:  # deduplicated: its base reads
        reads = None if base is None else base[0]
    else:
        reads = item[0]
    assert memtable.resolve_batch([(probe_key, probe_version)])[0] == reads
    assert memtable.last_search_steps == len(model).bit_length() + hops
    assert memtable.get(probe_key, probe_version) == item


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
            item_keys = [item_key for item_key, _dedup in argument]
            items = ItemColumns(
                item_keys, bytes(dedup for _item_key, dedup in argument)
            )
            if len(set(item_keys)) < len(item_keys) or any(
                item_key in model for item_key in item_keys
            ):
                steps = memtable.last_search_steps
                with pytest.raises(DuplicateItemError):
                    memtable.check_new(items)
                assert memtable.last_search_steps == steps
            else:
                memtable.check_new(items)
                for item_key, dedup in argument:
                    model[item_key] = ((0, sequence, 1), dedup, False, 0)
                count = len(argument)
                memtable.put_batch(
                    items,
                    *(
                        array("q", [field]) * count
                        for field in (0, 0, sequence, 1)
                    ),
                )
        elif action == "drop":
            if argument in model:
                del model[argument]
                memtable.drop(*argument)
            else:
                with pytest.raises(KeyNotFoundError):
                    memtable.drop(*argument)
        elif action in ("mark_deleted", "mark_deleted_batch"):
            if action == "mark_deleted":
                memtable.mark_deleted(*argument)
                argument = [argument]
            else:
                memtable.mark_deleted_batch(argument)
            assert memtable.last_search_steps == len(model).bit_length() + max(
                len(argument) - 1, 0
            )
            for item_key in argument:
                before = model.get(item_key)
                if before is not None:
                    location, dedup, _deleted, item_sequence = before
                    model[item_key] = (location, dedup, True, item_sequence)
                assert memtable.get(*item_key) == model.get(item_key)
        else:
            location = (1, sequence, 2)
            if argument in model:
                _old, dedup, deleted, item_sequence = model[argument]
                memtable.relocate([argument], *zip(location))
                model[argument] = (location, dedup, deleted, item_sequence)
            else:
                with pytest.raises(KeyError):
                    memtable.relocate([argument], *zip(location))
        # walks interleave with the mutations, so a pending re-sort, a
        # drop from the sorted list and a re-put of a dropped key all
        # get exercised
        check_against_model(memtable, model, probe_key, probe_version)
