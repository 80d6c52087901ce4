"""Unit tests for the simulated-time span tracer."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs import Tracer
from repro.simulation.kernel import Simulator


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


def test_clock_sources():
    sim = Simulator()
    assert Tracer(sim) is not None
    assert Tracer(lambda: 3.0).span("x").__enter__().start_s == 3.0
    with pytest.raises(ConfigError):
        Tracer(object())


def test_nesting_and_durations():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer") as outer:
        clock.now = 1.0
        with tracer.span("inner", detail=7) as inner:
            clock.now = 3.0
        clock.now = 4.0
    assert inner.parent_id == outer.span_id
    assert outer.start_s == 0.0 and outer.end_s == 4.0
    assert inner.start_s == 1.0 and inner.end_s == 3.0
    assert inner.attrs["detail"] == 7
    assert inner.duration_s == pytest.approx(2.0)
    # children lie within the parent's simulated-time bounds
    assert outer.start_s <= inner.start_s <= inner.end_s <= outer.end_s


def test_sibling_tracks_do_not_interleave_stacks():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("cycle"):
        with tracer.span("transmit"):
            a = tracer.track("deliver:north:0")
            b = tracer.track("deliver:south:1")
            with a.span("deliver") as span_a:
                # b's root opens while a is still open: it must parent to
                # the main track's innermost span, not to a's span.
                with b.span("deliver") as span_b:
                    pass
    transmit = next(s for s in tracer.spans if s.name == "transmit")
    assert span_a.parent_id == transmit.span_id
    assert span_b.parent_id == transmit.span_id


def test_track_nested_spans_parent_within_track():
    clock = FakeClock()
    tracer = Tracer(clock)
    track = tracer.track("deliver:r:0")
    with track.span("deliver") as outer:
        with track.span("transmit_hop") as hop:
            pass
    assert hop.parent_id == outer.span_id


def test_explicit_parent_crosses_tracks():
    """A track root can declare its parent explicitly — how delivery
    spans attach to their own version's transmit span when several
    pipelined cycles share the kernel."""
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("cycle", track="cycle:1") as cycle_one:
        with tracer.span("transmit", track="cycle:1") as transmit_one:
            with tracer.span("cycle", track="cycle:0"):
                pass  # another cycle is open concurrently
            deliver = tracer.track("deliver:north:0")
            with deliver.span("deliver", parent=transmit_one) as span:
                pass
    assert span.parent_id == transmit_one.span_id
    assert cycle_one.parent_id is None


def test_explicit_parent_ignored_when_track_stack_is_open():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("elsewhere") as elsewhere:
        track = tracer.track("deliver:r:0")
        with track.span("deliver") as outer:
            # Nested span: the track's own stack wins over the explicit
            # parent — children never escape their enclosing span.
            with track.span("transmit_hop", parent=elsewhere) as hop:
                pass
    assert hop.parent_id == outer.span_id


def test_foreign_clock_track_stays_parentless():
    device = FakeClock()
    device.now = 1000.0  # device clock far ahead of sim clock
    tracer = Tracer(FakeClock())
    engine_track = tracer.track("engine:n0", clock=device)
    with tracer.span("cycle"):
        with engine_track.span("gc_sweep") as sweep:
            device.now = 1001.0
    assert sweep.parent_id is None  # different time base: never nests
    assert sweep.start_s == 1000.0 and sweep.end_s == 1001.0


def test_error_annotated_and_reraised():
    tracer = Tracer(FakeClock())
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("nope")
    span = tracer.spans[0]
    assert span.finished
    assert span.attrs["error"] == "ValueError"


def test_chrome_trace_format():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("cycle"):
        clock.now = 1.0
        track = tracer.track("deliver:r:0")
        with track.span("deliver"):
            clock.now = 2.5
        clock.now = 3.0
    trace = json.loads(json.dumps(tracer.to_chrome_trace()))
    events = trace["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "M"}
    assert names == {"thread_name"}
    completes = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in completes} == {"cycle", "deliver"}
    cycle = next(e for e in completes if e["name"] == "cycle")
    assert cycle["ts"] == 0.0 and cycle["dur"] == pytest.approx(3e6)
    # per-track ts monotonicity
    by_tid = {}
    for event in completes:
        by_tid.setdefault(event["tid"], []).append(event["ts"])
    for series in by_tid.values():
        assert series == sorted(series)


def test_stage_summary_aggregates_descendants():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("cycle"):
        with tracer.span("build"):
            clock.now = 1.0
        with tracer.span("transmit"):
            track = tracer.track("deliver:r:0")
            for _ in range(2):
                with track.span("deliver"):
                    clock.now += 2.0
        clock.now = 10.0
    rows = {row["stage"]: row for row in tracer.stage_summary()}
    assert rows["build"]["total_s"] == pytest.approx(1.0)
    assert rows["deliver"]["count"] == 2
    assert rows["deliver"]["total_s"] == pytest.approx(4.0)
    assert rows["transmit"]["share"] == pytest.approx(4.0 / 10.0)
    assert "cycle" not in rows  # the root itself is not a row


def test_stage_summary_uses_most_recent_root():
    clock = FakeClock()
    tracer = Tracer(clock)
    for width in (1.0, 5.0):
        with tracer.span("cycle"):
            with tracer.span("build"):
                clock.now += width
    rows = {row["stage"]: row for row in tracer.stage_summary()}
    assert rows["build"]["total_s"] == pytest.approx(5.0)
    assert tracer.stage_summary(root_name="nonexistent") == []


def test_instants_recorded_and_exported():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("cycle"):
        clock.now = 1.0
        tracer.instant("fault_injected:crash", track="faults", node="n0")
        clock.now = 3.0
    tracer.instant("alert:node_down", track="alerts", at=1.25)
    assert [i.name for i in tracer.instants] == [
        "fault_injected:crash",
        "alert:node_down",
    ]
    assert tracer.instants[0].at_s == 1.0  # defaults to the tracer clock
    assert tracer.instants[1].at_s == 1.25  # explicit timestamp wins
    assert tracer.instants[0].attrs == {"node": "n0"}
    trace = tracer.to_chrome_trace()
    instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert len(instants) == 2
    assert all(e["s"] == "g" for e in instants)  # global scope markers
    alert = next(e for e in instants if e["name"] == "alert:node_down")
    assert alert["ts"] == pytest.approx(1.25e6)
    # instant-only tracks still get a tid and a thread_name metadata row
    tids = {
        e["args"]["name"]: e["tid"]
        for e in trace["traceEvents"]
        if e["ph"] == "M"
    }
    assert {"faults", "alerts"} <= set(tids)
    assert alert["tid"] == tids["alerts"]
    json.dumps(trace)  # serializable end to end


def test_disabled_tracer_records_no_instants():
    tracer = Tracer(FakeClock(), enabled=False)
    assert tracer.instant("alert:x") is None
    assert tracer.instants == []

