"""End-to-end observability: a traced cycle with a populated registry."""

import json

import pytest

from repro.core.config import DirectLoadConfig
from repro.core.directload import DirectLoad
from repro.mint.cluster import MintConfig
from repro.obs.runner import observe_cycle

PIPELINE_STAGES = {
    "cycle",
    "build",
    "dedup",
    "slice",
    "schedule",
    "transmit",
    "deliver",
    "transmit_hop",
    "fanout",
    "ingest",
    "ingest_group",
    "evict",
    "gray_release",
    "activate",
}


@pytest.fixture(scope="module")
def system() -> DirectLoad:
    dl = DirectLoad(
        DirectLoadConfig(
            doc_count=60,
            vocabulary_size=400,
            doc_length=20,
            summary_value_bytes=512,
            forward_value_bytes=128,
            slice_bytes=64 * 1024,
            generation_window_s=30.0,
            mint=MintConfig(
                group_count=1,
                nodes_per_group=3,
                node_capacity_bytes=48 * 1024 * 1024,
            ),
        )
    )
    dl.run_update_cycle()
    return dl


def test_every_pipeline_stage_leaves_a_span(system: DirectLoad):
    names = {span.name for span in system.tracer.finished_spans()}
    assert PIPELINE_STAGES <= names


def test_children_nest_within_parent_sim_time_bounds(system: DirectLoad):
    spans = {s.span_id: s for s in system.tracer.finished_spans()}
    checked = 0
    for span in spans.values():
        if span.parent_id is None:
            continue
        parent = spans[span.parent_id]
        assert parent.start_s <= span.start_s, (span.name, parent.name)
        assert span.end_s <= parent.end_s, (span.name, parent.name)
        checked += 1
    assert checked > 10  # the trace is actually hierarchical


def test_single_snapshot_covers_every_subsystem(system: DirectLoad):
    snapshot = system.metrics.snapshot()
    names = set(snapshot.values)

    def some(prefix: str, leaf: str) -> bool:
        return any(
            n.startswith(prefix) and n.endswith("." + leaf) for n in names
        )

    assert some("qindb.", "user_bytes_written")  # QinDB engine counters
    assert some("qindb.", "read_cache.hits")  # cache counters
    assert some("qindb.", "batch.batches")  # batch counters
    assert some("ssd.", "host_pages_written")  # device counters
    assert some("bifrost.link.", "bytes")  # link counters
    assert some("bifrost.monitor.", "utilization_ewma")
    assert some("mint.", "puts")
    # and the fleet actually wrote something during the cycle
    written = sum(snapshot.values.get(n, 0.0) for n in names
                  if n.startswith("qindb.") and n.endswith("user_bytes_written"))
    assert written > 0


def test_report_carries_stage_breakdown(system: DirectLoad):
    report = system.reports[-1]
    rows = {row["stage"]: row for row in report.stages}
    assert {"build", "transmit", "gray_release"} <= set(rows)
    assert rows["transmit"]["total_s"] == pytest.approx(
        report.update_time_s, rel=0.05
    )


def test_cycle_attrs_and_stage_summary(system: DirectLoad):
    cycle = next(
        s for s in system.tracer.finished_spans() if s.name == "cycle"
    )
    assert cycle.attrs["version"] == 1
    rows = {row["stage"]: row for row in system.stage_summary()}
    assert rows["transmit"]["total_s"] > 0
    assert 0.0 <= rows["transmit"]["share"] <= 1.0
    gray = next(
        s for s in system.tracer.finished_spans() if s.name == "gray_release"
    )
    assert gray.attrs["outcome"] == "promoted"


def test_engine_tracks_use_device_clocks(system: DirectLoad):
    engine_tracks = {
        s.track for s in system.tracer.spans if s.track.startswith("engine:")
    }
    # engine spans (GC/checkpoint) may or may not have fired at this small
    # scale, but if any did, they must be parentless roots (foreign clock)
    for span in system.tracer.spans:
        if span.track in engine_tracks:
            assert span.parent_id is None


def test_chrome_export_round_trips(system: DirectLoad):
    trace = json.loads(json.dumps(system.tracer.to_chrome_trace()))
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in events} >= PIPELINE_STAGES
    by_tid = {}
    for event in events:
        by_tid.setdefault(event["tid"], []).append(event["ts"])
    for series in by_tid.values():
        assert series == sorted(series)


def test_observe_cycle_harness():
    observation = observe_cycle(cycles=2)
    assert len(observation.cycles) == 2
    assert observation.cycles[0]["version"] == 1
    assert observation.cycles[1]["promoted"] is True
    data = json.loads(json.dumps(observation.to_dict()))
    assert data["span_count"] > 0
    assert data["highlights"]["qindb.user_bytes_written"] > 0
    # the second cycle's delta shows growth over the first snapshot
    assert any(v > 0 for v in data["metrics_delta"].values())
    stages = {row["stage"] for row in data["stages"]}
    assert "transmit" in stages and "ingest" in stages
    chrome = json.loads(json.dumps(observation.chrome_trace()))
    assert chrome["traceEvents"]
