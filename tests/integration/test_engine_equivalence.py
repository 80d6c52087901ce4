"""Property test: QinDB and the LSM agree operation-for-operation.

Both engines implement the same versioned KV interface with dedup
traceback, per key and as the batch verbs of the ``Engine`` protocol.
They have one documented semantic divergence — QinDB's
referent rule lets a *deleted* value keep serving newer deduplicated
versions, while an LSM tombstone shadows it — so the generated workloads
here never delete a version that a newer deduplicated version still
resolves to (the DirectLoad pipeline never does either: the oldest
version is deleted only after four newer complete-or-resolved versions
exist).  Under that contract the engines must agree exactly, flushes,
compactions, and GC included.
"""

from itertools import groupby

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.errors import KeyNotFoundError
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.mint.node import Engine
from repro.qindb.engine import QinDB, QinDBConfig

KEYS = [b"site-a", b"site-b"]


def build_engines():
    qindb = QinDB.with_capacity(
        16 * 1024 * 1024,
        config=QinDBConfig(segment_bytes=256 * 1024, gc_defer_min_free_blocks=0),
    )
    lsm = LSMEngine.with_capacity(
        16 * 1024 * 1024,
        config=LSMConfig(
            memtable_bytes=4 * 1024,
            level1_max_bytes=16 * 1024,
            max_file_bytes=4 * 1024,
        ),
    )
    return qindb, lsm


@st.composite
def safe_workloads(draw):
    """Version-ordered workloads honouring the dedup/delete contract."""
    ops = []
    version = 0
    #: per key: versions written and whether each carried a value
    history = {key: {} for key in KEYS}
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        version += 1
        for key in KEYS:
            choice = draw(st.sampled_from(["value", "dedup", "skip"]))
            if choice == "skip":
                continue
            if choice == "dedup" and not any(
                carried for carried in history[key].values()
            ):
                choice = "value"  # a chain must root somewhere
            if choice == "value":
                ops.append(("put", key, version, bytes([version]) * 300))
                history[key][version] = True
            else:
                ops.append(("put", key, version, None))
                history[key][version] = False
        # Optionally expire the oldest version, but never a version some
        # newer dedup resolves to.
        if draw(st.booleans()):
            for key in KEYS:
                versions = sorted(history[key])
                if len(versions) < 3:
                    continue
                oldest = versions[0]
                resolver = None
                for candidate in versions[1:]:
                    if history[key][candidate]:
                        resolver = candidate
                        break
                # Safe only if the next-oldest versions do not dedup
                # down to `oldest`: the first newer version must carry
                # its own value.
                if resolver == versions[1]:
                    ops.append(("delete", key, oldest))
                    del history[key][oldest]
        if draw(st.booleans()):
            probe_version = draw(st.integers(min_value=1, max_value=version))
            ops.append(("get", draw(st.sampled_from(KEYS)), probe_version))
    return ops


def drive(engine: Engine, ops, grouped: bool):
    """Apply ``ops``; return every read's outcome, then a full sweep's.

    Per key, through ``put`` / ``get`` / ``delete``; or ``grouped``, each
    run of one verb — a version's puts, an expiry's deletes, the sweep —
    as one batch through the :class:`Engine` protocol.  A read of nothing
    is ``None`` either way.
    """
    outcomes = []
    sweep = [
        (key, version)
        for key in KEYS
        for version in range(1, max((op[2] for op in ops), default=0) + 1)
    ]
    runs = [
        (verb, [op[1:] for op in run])
        for verb, run in groupby(ops, key=lambda op: op[0])
    ] + [("get", sweep)]
    for verb, items in runs:
        if grouped:
            if verb == "put":
                engine.put_batch(items)
            elif verb == "delete":
                engine.delete_batch(items)
            else:
                outcomes += zip(items, engine.get_batch(items))
            continue
        for item in items:
            if verb == "put":
                engine.put(*item)
            elif verb == "delete":
                engine.delete(*item)
            else:
                try:
                    outcomes.append((item, engine.get(*item)))
                except KeyNotFoundError:
                    outcomes.append((item, None))
    return outcomes


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=safe_workloads())
def test_property_engines_agree(ops):
    """Both engines, driven per key and per version, give one answer."""
    qindb, lsm = build_engines()
    expected = drive(qindb, ops, grouped=False)
    assert drive(lsm, ops, grouped=False) == expected
    for engine in build_engines():
        assert drive(engine, ops, grouped=True) == expected, type(engine)


def retirable_versions(ops):
    """Versions whose retirement keeps the engines' contract: no newer
    deduplicated record of a key resolves to a value retiring deletes
    (the referent rule would keep serving it; an LSM tombstone not)."""
    records = {}
    for op in ops:
        if op[0] == "put":
            records.setdefault(op[1], {})[op[2]] = op[3] is not None
        elif op[0] == "delete":
            del records[op[1]][op[2]]
    versions = {version for history in records.values() for version in history}
    unsafe = set()
    for history in records.values():
        ordered = sorted(history)
        for older, newer in zip(ordered, ordered[1:]):
            if history[older] and not history[newer]:
                unsafe.add(older)
    return sorted(versions - unsafe)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=safe_workloads(), data=st.data())
def test_property_engines_agree_after_retire_version(ops, data):
    """A version evicted in one call reads the same on both engines."""
    retirable = retirable_versions(ops)
    assume(retirable)
    version = data.draw(st.sampled_from(retirable))
    sweep = [
        (key, swept)
        for key in KEYS
        for swept in range(1, max(op[2] for op in ops) + 1)
    ]
    answers = []
    for engine in build_engines():
        drive(engine, ops, grouped=True)
        live = sum(engine.exists(key, version) for key in KEYS)
        retired = engine.retire_version(version)
        assert retired == live
        assert not any(engine.exists(key, version) for key in KEYS)
        answers.append((retired, engine.get_batch(sweep)))
    assert answers[0] == answers[1]
