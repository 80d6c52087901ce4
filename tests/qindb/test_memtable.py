"""Unit tests for the QinDB memtable."""

import pytest

from repro.errors import DuplicateItemError, KeyNotFoundError
from repro.qindb.memtable import ItemColumns, Memtable


def loc(segment=0, offset=0, length=10):
    return (segment, offset, length)


def new(item_keys):
    """``item_keys`` as a batch of new value-bearing items."""
    return ItemColumns(item_keys, bytes(len(item_keys)))


def test_put_get():
    mt = Memtable()
    assert mt.put(b"k", 1, loc(), deduplicated=False) is None
    item = mt.get(b"k", 1)
    assert item is not None
    _location, deduplicated, deleted, _sequence = item
    assert not deduplicated  # the record carries a value
    assert not deleted
    assert len(mt) == 1


def test_check_new_refuses_held_and_repeated_items():
    mt = Memtable()
    mt.put(b"k", 1, loc(0, 0), deduplicated=False)
    mt.put(b"d", 1, loc(0, 10), deduplicated=False)
    mt.mark_deleted(b"d", 1)
    steps = mt.last_search_steps
    mt.check_new(new([(b"k", 2), (b"n", 1), (b"n", 2)]))  # all new
    for batch in (
        [(b"k", 1)],  # live
        [(b"n", 1), (b"d", 1)],  # deleted, still held
        [(b"n", 1), (b"n", 1)],  # twice in one batch
        [(b"n", 2), (b"k", 3), (b"n", 2)],  # twice, across versions
    ):
        with pytest.raises(DuplicateItemError):
            mt.check_new(new(batch))
    assert mt.last_search_steps == steps  # charges nothing
    assert mt.get(b"k", 1) == (loc(0, 0), False, False, 0)
    assert len(mt) == 2


def test_dedup_flag_tracks_r():
    mt = Memtable()
    mt.put(b"k", 2, loc(), deduplicated=True)
    _location, deduplicated, deleted, _sequence = mt.get(b"k", 2)
    assert deduplicated  # the r flag: no value field
    assert not deleted


def test_mark_deleted_sets_d_flag():
    mt = Memtable()
    mt.put(b"k", 1, loc(), deduplicated=False)
    mt.mark_deleted(b"k", 1)
    assert mt.get(b"k", 1) == (loc(), False, True, 0)
    mt.mark_deleted(b"missing", 1)
    assert mt.get(b"missing", 1) is None and len(mt) == 1


def test_mark_deleted_batch_replaces_items_and_charges_one_search():
    mt = Memtable()
    mt.put(b"a", 1, loc(offset=1), deduplicated=False, sequence=5)
    mt.put(b"b", 1, loc(offset=2), deduplicated=True, sequence=6)
    marked = [(b"b", 1), (b"missing", 1), (b"a", 1)]
    mt.mark_deleted_batch(marked)
    assert mt.last_search_steps == (2).bit_length() + 2
    assert mt.get_batch(marked) == [
        (loc(offset=2), True, True, 6), None, (loc(offset=1), False, True, 5)
    ]
    mt.mark_deleted_batch([(b"a", 1)] * 3)
    assert mt.last_search_steps == (2).bit_length() + 2
    assert len(mt) == 2


def test_retire_flags_items_older_than_before_and_books_their_bytes():
    mt = Memtable()
    mt.put(b"a", 1, loc(0, 0, 10), deduplicated=False, sequence=3)
    mt.put(b"b", 1, loc(1, 0, 20), deduplicated=True, sequence=4)
    mt.put(b"c", 1, loc(1, 20, 30), deduplicated=False, sequence=9)
    mt.put(b"d", 1, loc(0, 10, 40), deduplicated=False, sequence=2)
    mt.mark_deleted(b"d", 1)
    mt.put(b"a", 2, loc(2, 0, 5), deduplicated=False, sequence=5)
    # c, first put at sequence 9 after the RETIRE, stays live
    assert mt.retire(1, before=7) == (2, {0: 10, 1: 20})
    assert mt.last_search_steps == len(mt).bit_length()
    assert [mt.get(key, 1)[2] for key in (b"a", b"b", b"c", b"d")] == [
        True, True, False, True
    ]
    assert mt.get(b"b", 1)[1]  # the r flag kept
    # every slot older: the whole run at once
    assert mt.retire(1) == (1, {1: 30})
    assert mt.get(b"c", 1) == (loc(1, 20, 30), False, True, 9)
    assert mt.retire(1) == (0, {}) and mt.retire(7) == (0, {})
    assert not mt.get(b"a", 2)[2]


def test_relocate_moves_location_and_keeps_flags():
    mt = Memtable()
    mt.put(b"k", 1, loc(0, 64), deduplicated=True, sequence=9)
    mt.mark_deleted(b"k", 1)
    mt.relocate([(b"k", 1)], *zip(loc(3, 128)))
    assert mt.get(b"k", 1) == (loc(3, 128), True, True, 9)
    assert [k for k, _v, _i in mt.items()] == [b"k"]
    with pytest.raises(KeyError):
        mt.relocate([(b"missing", 1)], *zip(loc()))


def test_drop_removes_item():
    mt = Memtable()
    mt.put(b"k", 1, loc(), deduplicated=False)
    mt.drop(b"k", 1)
    assert mt.get(b"k", 1) is None
    with pytest.raises(KeyNotFoundError):
        mt.drop(b"k", 1)


def test_older_versions_descend():
    mt = Memtable()
    for version in (1, 2, 3, 4):
        mt.put(b"k", version, loc(), deduplicated=False)
    mt.put(b"other", 9, loc(), deduplicated=False)
    assert [v for v, _i in mt.older_versions(b"k", 3)] == [2, 1]


def test_referenced_walks_newer_dedup_versions():
    mt = Memtable()
    mt.put(b"k", 1, loc(), deduplicated=False)
    mt.put(b"k", 2, loc(), deduplicated=True)
    mt.put(b"k", 3, loc(), deduplicated=True)
    mt.put(b"k", 4, loc(), deduplicated=False)
    mt.put(b"zz", 1, loc(), deduplicated=False)
    assert mt.referenced(b"k", 1)  # live 2 reads through to 1
    mt.mark_deleted(b"k", 2)
    assert mt.referenced(b"k", 1)  # 3 still does, past deleted 2
    mt.mark_deleted(b"k", 3)
    assert not mt.referenced(b"k", 1)
    assert not mt.referenced(b"k", 3)  # 4 carries a value: shadowed
    assert not mt.referenced(b"zz", 1)


def test_version_walks_do_not_cross_keys():
    mt = Memtable()
    mt.put(b"a", 5, loc(), deduplicated=False)
    mt.put(b"b", 1, loc(), deduplicated=False)
    mt.put(b"c", 9, loc(), deduplicated=False)
    mt.put(b"b", 2, loc(), deduplicated=True)
    assert list(mt.older_versions(b"b", 2)) == [(1, (loc(), False, False, 0))]
    assert not mt.referenced(b"a", 4)  # b/2 is another key's item


def test_scan_by_key_range():
    mt = Memtable()
    for key in (b"a", b"b", b"c", b"d"):
        mt.put(key, 1, loc(), deduplicated=False)
    scanned = [k for k, _v, _i in mt.scan(b"b", b"d")]
    assert scanned == [b"b", b"c"]


def test_approximate_bytes_tracks_inserts_and_drops():
    mt = Memtable()
    assert mt.approximate_bytes == 0
    mt.put(b"key-one", 1, loc(), deduplicated=False)
    grown = mt.approximate_bytes
    assert grown > 0
    mt.put(b"key-one", 2, loc(offset=5), deduplicated=False)
    assert mt.approximate_bytes == 2 * grown
    mt.drop(b"key-one", 1)
    mt.drop(b"key-one", 2)
    assert mt.approximate_bytes == 0
