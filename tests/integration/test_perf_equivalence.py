"""Byte-identical equivalence gates for the kernel speed refactor.

The perf refactor (bucketed event queue, pooled timeouts, null tracer,
batched accounting, ingest fast paths) must not change a single
delivered byte.  These tests pin SHA-256 digests of three seeded runs —
a plain month, a pipelined month, and a chaos month — captured on the
pre-refactor tree.  The digest covers every cycle report field
(including the traced stage table) *and* the full fleet state: every
replica's stored representation of every live ``(key, version)``.

If a digest changes, the refactor changed behavior; fix the refactor,
do not re-pin, unless the release notes explicitly call out a semantic
change.

A second family of checks proves the null-tracer path is inert: the
same runs with ``tracing_enabled=False`` must reproduce the identical
fleet state and reports (minus the stage table, which is legitimately
empty when nothing records spans).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

from repro.workloads.chaos import (
    ChaosConfig,
    build_chaos_system,
    fleet_state,
    run_chaos,
)

# Mutation rates driven after the bootstrap cycle; arbitrary but fixed.
RATES = [0.3, 0.5]

GOLDEN = {
    "plain": "9396ca2498a59de35b43ff3a3a4767e9bffbc980818fdaf38cca24ef9005af59",
    "plain-reports": "e76cc8966fb59d80ae800f400af0cef850ac1179fc85981f7b11a672fe47b375",
    "pipelined": "1bfd17481c1b66db9b809856c64f881bd5c3b8095f91b810a2cff930398cf095",
    "pipelined-reports": "e76cc8966fb59d80ae800f400af0cef850ac1179fc85981f7b11a672fe47b375",
    # Re-pinned once, by the sorted-run memtable (ISSUE 12): a memtable
    # search is now charged ``len(table).bit_length()`` comparisons, not a
    # skip-list step count, so the repair's device time — and with it
    # ``reprotect_last_s``/``reprotect_max_s`` (4.01163925 -> 4.01022125) —
    # moved.  No other field of the payload and no stored byte changed.
    "chaos": "fdc0d01df934190e35ab5b3772b80744cc2b65fff9eda3ea3174b56702191467",
    # Seven pipelined cycles that evict versions 1..3 (reports, fleet
    # state, every node's tallies and engine/device counters).  Re-pinned
    # twice.  First by eviction as one RETIRE frame per node: no
    # tombstone per record, so the AOF and device byte, page, op and
    # clock counters fell, and with the clocks one read of north-dc1/g0
    # moved from n2 to n1 (replicas then ranked by device time).  Then by
    # ranking replicas by reads served instead of device clocks: that
    # read moved back, from n1 to n2 (north-dc1/g0's gets per node
    # n0/n1/n2 are 75/74/75 again, not 75/75/74), and with it the two
    # nodes' read counters and clocks.  Reports and fleet state unchanged.
    "pipelined-evicting": "99b806f8e8b1554608aecd85935acca9774896399893ba2a3aa75ed6f6768ca6",
    # The same month's outcome: fleet state, each cycle's version, keys
    # delivered and evicted versions, and every node's puts, gets and
    # deletes.  Minted before eviction became one RETIRE frame; no
    # storage change can move it, since no read is routed by a device
    # clock.
    "pipelined-evicting-state": "a677a1791bfddac8b64931daed0a21a47232a3f2a33608823891239d7872ef47",
}


def _canon(value):
    """JSON-representable canonical form (bytes hex-encoded)."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    return value


def _digest(payload) -> str:
    blob = json.dumps(_canon(payload), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _report_dicts(reports, stages: bool = True):
    rows = [dataclasses.asdict(r) for r in reports]
    if not stages:
        for row in rows:
            row.pop("stages", None)
    return rows


def _state_rows(system):
    return {
        f"{dc}|{node}|{key.hex()}|{version}": value
        for (dc, node, key, version), value in fleet_state(system).items()
    }


def _run_plain(tracing: bool = True):
    system = build_chaos_system(tracing=tracing)
    reports = [system.run_update_cycle()]
    for rate in RATES:
        reports.append(system.run_update_cycle(mutation_rate=rate))
    return system, reports


def _run_pipelined(tracing: bool = True):
    system = build_chaos_system(tracing=tracing)
    reports = system.run_pipelined_cycles([None] + RATES)
    return system, reports


def compute_digests():
    """All pinned digests, from a live run (used to mint GOLDEN)."""
    plain_system, plain_reports = _run_plain()
    pipe_system, pipe_reports = _run_pipelined()
    chaos_result = run_chaos(ChaosConfig(plan="single-node-crash", cycles=3))
    return {
        "plain": _digest(
            {
                "reports": _report_dicts(plain_reports),
                "state": _state_rows(plain_system),
            }
        ),
        "plain-reports": _digest(_report_dicts(plain_reports, stages=False)),
        "pipelined": _digest(
            {
                "reports": _report_dicts(pipe_reports),
                "state": _state_rows(pipe_system),
            }
        ),
        "pipelined-reports": _digest(
            _report_dicts(pipe_reports, stages=False)
        ),
        "chaos": _digest(
            {
                "data": chaos_result.data,
                "state": _state_rows(chaos_result.system),
            }
        ),
    }


def test_plain_month_byte_identical():
    system, reports = _run_plain()
    payload = {
        "reports": _report_dicts(reports),
        "state": _state_rows(system),
    }
    assert _digest(payload) == GOLDEN["plain"]


def test_pipelined_month_byte_identical():
    system, reports = _run_pipelined()
    payload = {
        "reports": _report_dicts(reports),
        "state": _state_rows(system),
    }
    assert _digest(payload) == GOLDEN["pipelined"]


def test_chaos_month_byte_identical():
    result = run_chaos(ChaosConfig(plan="single-node-crash", cycles=3))
    payload = {
        "data": result.data,
        "state": _state_rows(result.system),
    }
    assert _digest(payload) == GOLDEN["chaos"]


def test_null_tracer_is_inert_plain():
    system, reports = _run_plain(tracing=False)
    assert all(r.stages == [] for r in reports)
    assert _digest(_report_dicts(reports, stages=False)) == (
        GOLDEN["plain-reports"]
    )
    assert _digest(_state_rows(system)) == _digest(
        _state_rows(_run_plain(tracing=True)[0])
    )


def test_null_tracer_is_inert_pipelined():
    system, reports = _run_pipelined(tracing=False)
    assert all(r.stages == [] for r in reports)
    assert _digest(_report_dicts(reports, stages=False)) == (
        GOLDEN["pipelined-reports"]
    )
    assert _digest(_state_rows(system)) == _digest(
        _state_rows(_run_pipelined(tracing=True)[0])
    )


def test_null_tracer_records_nothing():
    system, _ = _run_plain(tracing=False)
    assert system.tracer.spans == []
    assert system.tracer.finished_spans() == []
    assert system.tracer.stage_summary() == []


# A pipelined month long enough to evict: with ``max_live_versions=4``
# the installs of versions 5..7 retire versions 1..3 while newer
# versions' slices are still landing.
EVICTION_RATES = [None, 0.3, 0.5, 0.2, 0.4, 0.3, 0.5]


def _rounded(counters) -> dict:
    """A counter dataclass as a dict, clock fields to the nanosecond: a
    device clock is a float sum whose last bit follows the hash seed."""
    return {
        name: round(value, 9) if isinstance(value, float) else value
        for name, value in dataclasses.asdict(counters).items()
    }


def _node_counters(system):
    """Every node's request tallies and engine and device counters."""
    return {
        node.name: {
            "mint": [node.puts, node.gets, node.deletes],
            "qindb": _rounded(node.engine.stats()),
            "ssd": _rounded(node.engine.device.counters),
        }
        for cluster in system.clusters.values()
        for node in cluster.all_nodes
    }


@functools.lru_cache(maxsize=None)
def _evicting_digests():
    """The evicting month's digests: its outcome per node (``-state``)
    and the whole payload with every engine and device counter.  One run
    serves both checks."""
    system = build_chaos_system()
    reports = system.run_pipelined_cycles(EVICTION_RATES)
    assert any(report.evicted_versions for report in reports)
    state = _state_rows(system)
    cycles = [
        [report.version, report.keys_delivered, report.evicted_versions]
        for report in reports
    ]
    nodes = [
        node for cluster in system.clusters.values() for node in cluster.all_nodes
    ]
    per_node = {
        "cycles": cycles,
        "state": state,
        "tallies": {
            node.name: [node.puts, node.gets, node.deletes] for node in nodes
        },
    }
    full = {
        "reports": _report_dicts(reports),
        "state": state,
        "counters": _node_counters(system),
    }
    return {
        "pipelined-evicting-state": _digest(per_node),
        "pipelined-evicting": _digest(full),
    }


def test_evicting_pipelined_month_byte_identical():
    assert _evicting_digests()["pipelined-evicting"] == (
        GOLDEN["pipelined-evicting"]
    )


def test_evicting_pipelined_month_keeps_every_node_tally():
    digests = _evicting_digests()
    assert digests["pipelined-evicting-state"] == (
        GOLDEN["pipelined-evicting-state"]
    )
