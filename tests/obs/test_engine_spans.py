"""Engine-level spans: GC sweeps and checkpoints on the device clock."""

from repro.obs import Tracer
from repro.qindb.engine import QinDB, QinDBConfig

SEGMENT = 256 * 1024  # one erase block at the 16 MB test capacity


def traced_engine(**config_kwargs):
    engine = QinDB.with_capacity(
        16 * 1024 * 1024,
        config=QinDBConfig(segment_bytes=SEGMENT, **config_kwargs),
    )
    tracer = Tracer(lambda: 0.0)  # main clock unused by the engine track
    engine.bind_trace(tracer.track("engine:n0", clock=engine.device))
    return engine, tracer


def churn(engine, versions: int = 200) -> None:
    """Version churn with trailing deletes: old segments go fully dead."""
    value = bytes(4096)
    for version in range(1, versions + 1):
        engine.put(b"key", version, value)
        if version > 2:
            engine.delete(b"key", version - 2)


def test_gc_sweep_spans_on_device_clock():
    engine, tracer = traced_engine()
    churn(engine)
    assert engine.stats().gc_runs > 0, "GC never ran despite heavy garbage"
    sweeps = [s for s in tracer.finished_spans() if s.name == "gc_sweep"]
    assert len(sweeps) == engine.stats().gc_runs
    for span in sweeps:
        assert span.track == "engine:n0"
        assert span.parent_id is None  # device clock: never nests in main
        assert "segment" in span.attrs
        assert span.end_s > span.start_s  # a sweep costs device time
    # spans carry the device time base, which only moves forward
    starts = [s.start_s for s in sweeps]
    assert starts == sorted(starts)


def test_checkpoint_spans_recorded():
    engine, tracer = traced_engine(checkpoint_interval_bytes=128 * 1024)
    value = bytes(4096)
    for version in range(1, 80):
        engine.put(b"key", version, value)
    checkpoints = [
        s for s in tracer.finished_spans() if s.name == "checkpoint"
    ]
    assert checkpoints
    assert all(s.track == "engine:n0" for s in checkpoints)
    assert all(s.attrs["appended_bytes"] > 0 for s in checkpoints)


def test_untraced_engine_is_unaffected():
    engine = QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=SEGMENT)
    )
    churn(engine)  # no tracer bound: plain GC/checkpoint path still works
    assert engine.stats().gc_runs > 0
    assert engine.get(b"key", 200) == bytes(4096)


def test_gc_sweep_span_explains_the_collection():
    """A sweep's span says what it walked, moved and dropped."""
    engine, tracer = traced_engine()
    value = bytes(4096)
    engine.put_batch([(b"base", 1, value), (b"base", 2, None)])
    engine.delete_batch([(b"base", 1)])  # dead, but base/2 resolves to it
    churn(engine)
    sweeps = [s for s in tracer.finished_spans() if s.name == "gc_sweep"]
    assert sweeps
    for span in sweeps:
        attrs = span.attrs
        assert attrs["frames"] >= attrs["moved"] + attrs["dropped"]
        assert attrs["tombstones_carried"] <= attrs["moved"]
        assert (attrs["bytes_moved"] > 0) == (attrs["moved"] > 0)
    stats = engine.stats()
    assert sum(s.attrs["bytes_moved"] for s in sweeps) == (
        stats.gc_bytes_reappended
    )
    assert sum(s.attrs["dropped"] for s in sweeps) > 0
    # the referenced dead base and its tombstone were carried, not dropped
    assert sum(s.attrs["tombstones_carried"] for s in sweeps) > 0
    assert engine.get(b"base", 2) == value


def test_gc_sweep_attrs_are_discarded_by_a_disabled_tracer():
    engine = QinDB.with_capacity(
        16 * 1024 * 1024, config=QinDBConfig(segment_bytes=SEGMENT)
    )
    tracer = Tracer(lambda: 0.0, enabled=False)
    engine.bind_trace(tracer.track("engine:n0", clock=engine.device))
    churn(engine)
    assert engine.stats().gc_runs > 0
    assert tracer.finished_spans() == []
