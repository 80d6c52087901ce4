"""Model-based property tests: QinDB vs. a reference dictionary.

The model implements the paper's semantics directly on dicts:

* PUT stores the value (or a dedup marker) of a ``(key, version)`` the
  engine does not hold; one it holds, live or deleted, is refused with
  nothing changed (a version is written once);
* GET resolves dedup markers by walking to the nearest older version
  whose value was stored — including *deleted* older versions (their
  values remain usable until reclaimed, and the engine's GC guarantees
  referenced values are never reclaimed);
* DELETE hides the item from direct GETs.

The engine, with GC enabled and aggressively small segments, must agree
with the model after any operation sequence — this is the test that the
lazy GC's referent rule never loses a value it still needs.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateItemError, KeyNotFoundError
from repro.qindb.checkpoint import crash, recover
from repro.qindb.engine import QinDB, QinDBConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.geometry import SSDGeometry


def tiny_block_engine(segment_bytes: int, threshold: float) -> QinDB:
    """An engine over 4 KB erase blocks so tiny segments are legal."""
    geometry = SSDGeometry(
        block_count=512, pages_per_block=8, page_size=512, op_ratio=0.07
    )
    return QinDB(
        SimulatedSSD(geometry),
        config=QinDBConfig(
            segment_bytes=segment_bytes,
            gc_occupancy_threshold=threshold,
            gc_defer_min_free_blocks=0,
        ),
    )

KEYS = [b"alpha", b"beta", b"gamma"]
VERSIONS = [1, 2, 3, 4]


class ModelStore:
    """Reference semantics on plain dicts."""

    def __init__(self):
        self.values = {}  # (key, version) -> bytes or None (dedup)
        self.deleted = set()

    def put(self, key, version, value):
        self.values[(key, version)] = value
        self.deleted.discard((key, version))

    def delete(self, key, version):
        if (key, version) not in self.values or (key, version) in self.deleted:
            raise KeyNotFoundError("model: absent")
        self.deleted.add((key, version))

    def get(self, key, version):
        if (key, version) not in self.values or (key, version) in self.deleted:
            raise KeyNotFoundError("model: absent")
        probe = version
        while True:
            value = self.values.get((key, probe), KeyNotFoundError)
            if value is KeyNotFoundError and probe == version:
                raise KeyNotFoundError("model: absent")
            if value is not KeyNotFoundError and value is not None:
                return value
            older = [
                v for (k, v) in self.values if k == key and v < probe
            ]
            if not older:
                raise KeyNotFoundError("model: broken chain")
            probe = max(older)


operations = st.lists(
    st.tuples(
        st.sampled_from(["put", "put_dedup", "delete", "get"]),
        st.sampled_from(KEYS),
        st.sampled_from(VERSIONS),
        st.integers(min_value=0, max_value=2),
    ),
    max_size=60,
)


def apply_and_compare(engine, model, ops):
    for action, key, version, salt in ops:
        if action in ("put", "put_dedup"):
            value = bytes([salt]) * (200 + salt) if action == "put" else None
            if engine.memtable.get(key, version) is not None:
                with pytest.raises(DuplicateItemError):
                    engine.put(key, version, value)
                continue
            engine.put(key, version, value)
            model.put(key, version, value)
        elif action == "delete":
            expected = None
            try:
                model.delete(key, version)
            except KeyNotFoundError:
                expected = KeyNotFoundError
            if expected is KeyNotFoundError:
                with pytest.raises(KeyNotFoundError):
                    engine.delete(key, version)
            else:
                engine.delete(key, version)
        else:
            try:
                expected_value = model.get(key, version)
            except KeyNotFoundError:
                with pytest.raises(KeyNotFoundError):
                    engine.get(key, version)
            else:
                assert engine.get(key, version) == expected_value


def check_all_reads(engine, model):
    for key in KEYS:
        for version in VERSIONS:
            try:
                expected = model.get(key, version)
            except KeyNotFoundError:
                with pytest.raises(KeyNotFoundError):
                    engine.get(key, version)
            else:
                assert engine.get(key, version) == expected


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=operations)
def test_property_engine_matches_model_with_aggressive_gc(ops):
    engine = tiny_block_engine(segment_bytes=4 * 1024, threshold=0.6)
    model = ModelStore()
    apply_and_compare(engine, model, ops)
    check_all_reads(engine, model)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=operations)
def test_property_recovery_matches_model(ops):
    """After a crash + full scan, the rebuilt engine agrees with the
    model for every readable (key, version)."""
    engine = tiny_block_engine(segment_bytes=8 * 1024, threshold=0.3)
    model = ModelStore()
    apply_and_compare(engine, model, ops)
    engine.flush()
    recovered = recover(crash(engine), config=engine.config)
    check_all_reads(recovered, model)
