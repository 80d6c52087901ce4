"""Unit + property tests for the LSM baseline's skip list."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError
from repro.lsm.skiplist import SkipListMap


def test_insert_get_roundtrip():
    sl = SkipListMap()
    assert sl.insert(5, "five")
    assert sl.get(5) == "five"
    assert len(sl) == 1


def test_insert_replaces_value():
    sl = SkipListMap()
    assert sl.insert(1, "a")
    assert not sl.insert(1, "b")
    assert sl.get(1) == "b"
    assert len(sl) == 1


def test_get_missing_raises_or_defaults():
    sl = SkipListMap()
    with pytest.raises(KeyNotFoundError):
        sl.get(99)
    assert sl.get(99, default="fallback") == "fallback"


def test_iteration_is_sorted():
    sl = SkipListMap()
    for key in (5, 1, 9, 3, 7):
        sl.insert(key, str(key))
    assert [k for k, _v in sl] == [1, 3, 5, 7, 9]


def test_floor():
    sl = SkipListMap()
    for key in (10, 20, 30):
        sl.insert(key, key)
    assert sl.floor(20) == (20, 20)
    assert sl.floor(25) == (20, 20)
    assert sl.floor(5) is None


def test_tuple_keys_sort_lexicographically():
    """The (key, version) composite ordering the LSM memtable relies on."""
    sl = SkipListMap()
    sl.insert((b"b", 1), "b1")
    sl.insert((b"a", 2), "a2")
    sl.insert((b"a", 1), "a1")
    sl.insert((b"a", 10), "a10")
    keys = [k for k, _v in sl]
    assert keys == [(b"a", 1), (b"a", 2), (b"a", 10), (b"b", 1)]


def test_deterministic_given_same_seed():
    def build(seed):
        sl = SkipListMap(seed=seed)
        for key in range(200):
            sl.insert((key * 7919) % 1000, key)
        sl.get(500, default=None)
        return sl.last_search_steps

    assert build(1) == build(1)


def test_search_steps_counter_moves():
    sl = SkipListMap()
    for key in range(500):
        sl.insert(key, key)
    sl.get(499)
    assert sl.last_search_steps > 0


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "get"]),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=300,
    )
)
def test_property_matches_dict_model(ops):
    """The skip list behaves exactly like a sorted dict."""
    sl = SkipListMap(seed=7)
    model = {}
    for action, key in ops:
        if action == "insert":
            assert sl.insert(key, key * 2) == (key not in model)
            model[key] = key * 2
        else:
            assert sl.get(key, default=None) == model.get(key)
    assert len(sl) == len(model)
    assert [k for k, _v in sl] == sorted(model)


@settings(max_examples=25, deadline=None)
@given(
    keys=st.sets(st.integers(min_value=0, max_value=1000), max_size=100),
    probe=st.integers(min_value=-5, max_value=1005),
)
def test_property_floor_matches_model(keys, probe):
    sl = SkipListMap(seed=3)
    for key in keys:
        sl.insert(key, key)
    expected_floor = max((k for k in keys if k <= probe), default=None)
    floor = sl.floor(probe)
    assert (floor[0] if floor else None) == expected_floor
