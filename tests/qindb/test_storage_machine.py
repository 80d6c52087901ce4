"""A rule-based state machine over one QinDB, checked against a dict.

The model is ``dict[(key, version)] -> (value, deleted)``, where a
``None`` value is a value-less (deduplicated) record.  Its read rule is
the paper's: a live record with a value reads it; a live value-less one
reads the nearest older version of its key that carries a value, deleted
or not; anything else reads nothing.

Rules are the engine's verbs on small segments, so collections and
segment roll-over happen within a few steps:

* ``put_batch`` of values and value-less records the engine does not
  hold;
* a re-put — a batch naming a held item, or one item twice — which the
  engine refuses, leaving itself and the model unchanged;
* ``delete_batch`` of live items;
* ``retire_version``, which deletes every live item of one version;
* ``collect_segment`` of any sealed segment (and the automatic GC that
  any write may run);
* ``Checkpoint.write``, and a crash + ``recover`` that uses the newest
  checkpoint while no collection has invalidated it;
* a crash between a collection's moves and its erase, which leaves two
  copies of each moved frame at one sequence for the full scan.

The two collection rules are drawn only while a sealed segment exists
(the crash only while one holds a live record, so it always moves
frames); segments are small and every run begins by sealing one, so
the run meets GC duplicates in many examples
(:func:`test_the_machine_meets_gc_duplicates_often` counts them).

The only freedom the engine has is *when* a deleted record disappears:
GC drops a deleted item unless a live value-less version still resolves
to it.  After each step the model forgets exactly the deleted items the
engine no longer holds, after checking that none of them was still
needed.  Then ``get_batch``, ``exists``, ``peek`` and ``len(memtable)``
must agree with the model on every ``(key, version)`` in the space.

One history the machine can reach but rarely draws is pinned below: a
refused re-put of a deleted item, then GC and a full-scan recovery,
which must leave the item deleted.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.errors import DuplicateItemError
from repro.qindb.checkpoint import Checkpoint, crash, recover
from repro.qindb.engine import QinDB, QinDBConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry

KEYS = [b"a", b"b", b"c", b"d"]
VERSIONS = [1, 2, 3, 4]
SPACE = [(key, version) for key in KEYS for version in VERSIONS]

put_items = st.lists(
    st.tuples(
        st.sampled_from(KEYS),
        st.sampled_from(VERSIONS),
        st.one_of(st.none(), st.integers(min_value=1, max_value=600)),
    ),
    min_size=1,
    max_size=8,
)


def small_engine() -> QinDB:
    """2 KB erase blocks and one-block segments: a few frames each, so
    segments seal and collections move frames within a few steps."""
    geometry = SSDGeometry(
        block_count=512, pages_per_block=4, page_size=512, op_ratio=0.07
    )
    return QinDB(
        SimulatedSSD(geometry),
        config=QinDBConfig(
            segment_bytes=2 * 1024,
            gc_occupancy_threshold=0.5,
            gc_defer_min_free_blocks=0,
        ),
    )


def engine_state(engine: QinDB):
    """What a refused put must leave as it found."""
    return (
        list(engine.memtable.items()),
        engine.gc_table.snapshot(),
        engine.aofs.bytes_appended,
        engine._sequence,
    )


class StorageMachine(RuleBasedStateMachine):
    #: examples that left GC duplicates on flash for a full scan, counted
    #: across a run (:func:`test_the_machine_meets_gc_duplicates_often`)
    duplicate_examples = 0

    def __init__(self) -> None:
        super().__init__()
        self.engine = small_engine()
        self.model: dict = {}
        self.puts = 0
        self.checkpoint = None
        self.gc_runs_at_checkpoint = 0
        self.duplicated = False

    def teardown(self) -> None:
        if self.duplicated:
            StorageMachine.duplicate_examples += 1

    def sealed(self):
        """The ids of the segments no longer taking appends."""
        aofs = self.engine.aofs
        return [
            segment.segment_id
            for segment in aofs.segments
            if segment.segment_id != aofs.active_segment_id
        ]

    def holding_live(self):
        """The sealed segments that hold a live record: a collection of
        one moves frames."""
        sealed = set(self.sealed())
        return sorted(
            {
                item[0][0]
                for _key, _version, item in self.engine.memtable.items()
                if not item[2] and item[0][0] in sealed
            }
        )

    # ------------------------------------------------------------ model
    def expected_read(self, key: bytes, version: int):
        entry = self.model.get((key, version))
        if entry is None or entry[1]:
            return None
        if entry[0] is not None:
            return entry[0]
        return self.base_value(key, version)

    def base_value(self, key: bytes, version: int):
        """The nearest older stored value of ``key``, deleted or not."""
        for older in sorted(VERSIONS, reverse=True):
            entry = self.model.get((key, older))
            if older < version and entry is not None and entry[0] is not None:
                return entry[0]
        return None

    def referenced(self, key: bytes, version: int) -> bool:
        """Does a live value-less newer version resolve to this record?"""
        for newer in sorted(VERSIONS):
            entry = self.model.get((key, newer))
            if newer <= version or entry is None:
                continue
            if entry[0] is not None:
                return False
            if not entry[1]:
                return True
        return False

    def settle(self) -> None:
        """Forget the deleted items GC reclaimed, none of them needed."""
        for item_key, (value, deleted) in list(self.model.items()):
            if deleted and not self.engine.holds(*item_key):
                assert value is None or not self.referenced(*item_key), item_key
                del self.model[item_key]

    # ------------------------------------------------------------ rules
    @initialize(
        items=st.lists(
            st.tuples(
                st.sampled_from(KEYS), st.sampled_from(VERSIONS), st.just(600)
            ),
            min_size=5,
            max_size=5,
            unique_by=lambda item: item[:2],
        )
    )
    def seal_a_segment(self, items) -> None:
        """Four 600-byte records fill the first segment and a fifth
        opens the next, so every run has a sealed segment holding live
        records from its first step."""
        self.put_batch(items)
        assert self.holding_live()

    def values(self, items):
        """The drawn items with values, one ``(key, version)`` each."""
        batch = {}
        for key, version, size in items:
            self.puts += 1
            value = None if size is None else bytes([self.puts % 251]) * size
            batch.setdefault((key, version), value)
        return [(key, version, value) for (key, version), value in batch.items()]

    @rule(items=put_items)
    def put_batch(self, items) -> None:
        batch = [
            item for item in self.values(items) if item[:2] not in self.model
        ]
        if not batch:
            return
        self.engine.put_batch(batch)
        for key, version, value in batch:
            self.model[(key, version)] = (value, False)
        self.settle()

    @rule(items=put_items, pick=st.integers(min_value=0))
    def re_put(self, items, pick) -> None:
        """A held item (any, when there is one) or a repeat is refused."""
        batch = self.values(items)
        held = sorted(self.model)
        again = held[pick % len(held)] if held else batch[0][:2]
        batch.insert(pick % (len(batch) + 1), (*again, b"again"))
        before = engine_state(self.engine)
        with pytest.raises(DuplicateItemError):
            self.engine.put_batch(batch)
        assert engine_state(self.engine) == before

    @rule(picks=st.lists(st.integers(min_value=0), min_size=1, max_size=5))
    def delete_batch(self, picks) -> None:
        live = sorted(k for k, (_v, deleted) in self.model.items() if not deleted)
        if not live:
            return
        doomed = list(dict.fromkeys(live[pick % len(live)] for pick in picks))
        self.engine.delete_batch(doomed)
        for item_key in doomed:
            self.model[item_key] = (self.model[item_key][0], True)
        self.settle()

    @rule(version=st.sampled_from(VERSIONS))
    def retire_version(self, version) -> None:
        doomed = [
            item_key
            for item_key, (_value, deleted) in self.model.items()
            if item_key[1] == version and not deleted
        ]
        assert self.engine.retire_version(version) == len(doomed)
        for item_key in doomed:
            self.model[item_key] = (self.model[item_key][0], True)
        self.settle()

    @precondition(sealed)
    @rule(pick=st.integers(min_value=0))
    def collect_segment(self, pick) -> None:
        sealed = self.sealed()
        self.engine.collect_segment(sealed[pick % len(sealed)])
        self.settle()

    @rule()
    def checkpoint_write(self) -> None:
        if self.checkpoint is not None:
            self.checkpoint.discard()
        self.checkpoint = Checkpoint.write(self.engine)
        self.gc_runs_at_checkpoint = self.engine.gc_runs

    @rule()
    def crash_and_recover(self) -> None:
        engine = self.engine
        engine.flush()  # every acknowledged record is on flash
        valid = self.gc_runs_at_checkpoint == engine.gc_runs
        self.engine = recover(
            crash(engine),
            config=engine.config,
            checkpoint=self.checkpoint,
            checkpoint_valid=valid,
        )
        if self.checkpoint is not None:
            self.checkpoint.discard()
            self.checkpoint = None

    @precondition(holding_live)
    @rule(pick=st.integers(min_value=0))
    def crash_between_move_and_erase(self, pick) -> None:
        """Collect a sealed segment holding a live record but crash
        before its erase: every moved frame is on flash twice at one
        sequence, and the full scan must read what the engine read."""
        engine = self.engine
        victims = self.holding_live()
        engine.aofs.drop_segment = lambda segment_id: None
        engine.collect_segment(victims[pick % len(victims)])
        del engine.aofs.drop_segment
        self.duplicated = True
        engine.flush()
        self.engine = recover(crash(engine), config=engine.config)
        if self.checkpoint is not None:
            self.checkpoint.discard()
            self.checkpoint = None
        self.settle()

    @precondition(lambda self: self.checkpoint is not None)
    @rule()
    def checkpoint_discard(self) -> None:
        self.checkpoint.discard()
        self.checkpoint = None

    # ------------------------------------------------------------ checks
    @invariant()
    def agrees_with_model(self) -> None:
        engine = self.engine
        assert len(engine.memtable) == len(self.model)
        assert engine.get_batch(SPACE) == [
            self.expected_read(*item_key) for item_key in SPACE
        ]
        for key, version in SPACE:
            entry = self.model.get((key, version))
            live = entry is not None and not entry[1]
            assert engine.exists(key, version) == live
            expected_peek = None
            if live:
                expected_peek = (entry[0], entry[0] is None)
            assert engine.peek(key, version) == expected_peek


def test_deleted_re_put_stays_deleted_after_gc_and_full_scan():
    """Pinned history the machine can reach: put ``k/1``, re-put it (now
    refused, the engine unchanged), delete it, collect the segment that
    holds it, crash with no checkpoint.  An overwrite here would leave
    the older copy in an uncollected segment once GC dropped the item
    and its tombstone, and the full scan would install it live."""
    engine = small_engine()
    filler = [(b"f%d" % index, 1, b"x" * 600) for index in range(8)]
    engine.put_batch([(b"k", 1, b"A" * 600)] + filler)  # seals segment 0
    before = engine_state(engine)
    with pytest.raises(DuplicateItemError):
        engine.put_batch([(b"k", 1, b"B" * 600)])
    assert engine_state(engine) == before
    engine.delete_batch([(b"k", 1)])
    engine.put_batch([(b"g%d" % index, 1, b"x" * 600) for index in range(8)])
    (segment_id, _offset, _length), _r, _deleted, _s = engine.memtable.get(
        b"k", 1
    )
    engine.collect_segment(segment_id)
    assert not engine.holds(b"k", 1)
    engine.flush()
    recovered = recover(crash(engine), config=engine.config)
    assert not recovered.exists(b"k", 1)


StorageMachine.TestCase.settings = settings(
    derandomize=True,
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
test_storage_machine = StorageMachine.TestCase


def test_the_machine_meets_gc_duplicates_often():
    """The derandomized run crashes between a collection's moves and its
    erase, with frames moved, in several examples: GC duplicates are
    checked against the model, not only by one pinned history."""
    StorageMachine.duplicate_examples = 0
    run_state_machine_as_test(
        StorageMachine, settings=StorageMachine.TestCase.settings
    )
    assert StorageMachine.duplicate_examples >= 10
