"""Ablation A10 — pipelined update cycles vs the serial month.

Both arms run the one cycle engine
(:meth:`DirectLoad.run_pipelined_cycles`).  The serial month (Figure
9/10's driver, the control arm) is N trains of one — ``run_update_cycle``
— so each version's update runs to completion before the next begins and
the month's makespan is the sum of per-version update times.  One train
of N opens version N+1's generation window one ``generation_window_s``
after version N's, while N's tail slices are still in flight — the
steady state the paper's hourly cadence ("slices of index data in GBs
every hour") implies.

The bench runs both modes over the identical Fig. 9 dedup schedule on a
generation-window-bound configuration (delivery tails are a fraction of
the window) and asserts:

* the pipelined makespan is strictly below the serial sum of update
  times — pipelining must actually shorten the month;
* per-day dedup ratios, total ``keys_delivered``, and the final cluster
  state are identical — pipelining is a *scheduling* change only;
* per-version stage summaries stay self-contained when cycles overlap.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import render_table
from repro.bifrost.channels import TopologyConfig
from repro.core.config import DirectLoadConfig
from repro.core.directload import DirectLoad
from repro.mint.cluster import MintConfig
from repro.workloads.month import MonthlyTrace, MonthlyTraceConfig

DAYS = 30
SMOKE_DAYS = 5


def _system() -> DirectLoad:
    """Generation-window-bound: ~1 Mbit/s backbone, 5 s window.

    At this scale a version's delivery tail past its window is a
    fraction of the window, so overlapping generation with the previous
    version's tail is where the month's time goes — the regime where
    the paper's continuous hourly shipping operates.
    """
    return DirectLoad(
        DirectLoadConfig(
            doc_count=80,
            vocabulary_size=300,
            doc_length=20,
            summary_value_bytes=1024,
            forward_value_bytes=256,
            slice_bytes=32 * 1024,
            generation_window_s=5.0,
            topology=TopologyConfig(backbone_bps=1_000_000.0),
            mint=MintConfig(
                group_count=1,
                nodes_per_group=3,
                node_capacity_bytes=64 * 1024 * 1024,
            ),
        )
    )


def _specs(days: int):
    schedule = MonthlyTrace(MonthlyTraceConfig(days=days)).days()
    return [None] + [day.mutation_rate for day in schedule]


def _final_state(system: DirectLoad):
    """Every (dc, version, key) the fleet holds, plus readable contents
    of a deterministic sample — the serial-vs-pipelined witness."""
    state = {}
    for dc in sorted(system.clusters):
        cluster = system.clusters[dc]
        for version in sorted(cluster.version_keys):
            keys = sorted(set(cluster.version_keys[version]))
            sample = {
                key: cluster.get(key, version) for key in keys[:: max(1, len(keys) // 8)]
            }
            state[(dc, version)] = (len(keys), keys[0], keys[-1], sample)
    return state


def _run_serial(days: int):
    system = _system()
    schedule = MonthlyTrace(MonthlyTraceConfig(days=days)).days()
    started = system.sim.now
    reports = [system.run_update_cycle()]
    for day in schedule:
        reports.append(system.run_update_cycle(mutation_rate=day.mutation_rate))
    return system, reports, system.sim.now - started


def _run_pipelined(days: int):
    system = _system()
    reports = system.run_pipelined_cycles(_specs(days))
    return system, reports, system.last_pipelined_makespan_s


@pytest.fixture(scope="module")
def month_pair():
    serial = _run_serial(DAYS)
    pipelined = _run_pipelined(DAYS)
    return serial, pipelined


def test_ablation_pipelined_month(month_pair, benchmark):
    (serial_sys, serial_reports, serial_makespan) = month_pair[0]
    (pipe_sys, pipe_reports, pipe_makespan) = month_pair[1]
    serial_sum = sum(r.update_time_s for r in serial_reports)

    print("\n=== Ablation A10: pipelined vs serial month ===")
    print(
        render_table(
            ["mode", "versions", "makespan (s)", "sum update times (s)"],
            [
                ["serial", len(serial_reports), f"{serial_makespan:.1f}",
                 f"{serial_sum:.1f}"],
                ["pipelined", len(pipe_reports), f"{pipe_makespan:.1f}",
                 f"{serial_sum:.1f}"],
            ],
        )
    )
    saving = 1.0 - pipe_makespan / serial_sum
    print(f"pipelining shortens the month by {saving:.1%}")

    # The headline: overlap strictly beats run-to-completion.
    assert pipe_makespan < serial_sum
    # The serial month *is* the sum of its update times (no idle gaps).
    assert serial_makespan == pytest.approx(serial_sum, rel=1e-9)

    # Identical schedule: same per-day dedup ratios, version for version.
    assert [r.version for r in pipe_reports] == [
        r.version for r in serial_reports
    ]
    for serial_report, pipe_report in zip(serial_reports, pipe_reports):
        assert pipe_report.dedup_ratio == pytest.approx(
            serial_report.dedup_ratio
        )
        assert pipe_report.keys_delivered == serial_report.keys_delivered
        assert pipe_report.promoted == serial_report.promoted

    # Identical outcome: same total keys and same final fleet state.
    assert sum(r.keys_delivered for r in pipe_reports) == sum(
        r.keys_delivered for r in serial_reports
    )
    assert _final_state(pipe_sys) == _final_state(serial_sys)
    # No slice of a retired version was ever ingested.
    assert pipe_sys.fleet_stats()["stale_slices_dropped"] == 0

    benchmark(lambda: serial_sum / pipe_makespan)


def test_overlapping_stage_summaries_stay_per_version(month_pair):
    """Each version's stage table folds only its own spans."""
    _, pipe_reports, _ = month_pair[1]
    for report in pipe_reports:
        rows = {row["stage"]: row for row in report.stages}
        assert {"build", "transmit", "gray_release"} <= set(rows)
        # The transmit stage is this version's own delivery wall time.
        assert rows["transmit"]["total_s"] == pytest.approx(
            report.update_time_s, rel=0.05
        )
        assert rows["transmit"]["count"] == 1


def test_smoke_pipelined_month():
    """The CI smoke case: a short month, same claims, seconds to run."""
    serial_sys, serial_reports, _ = _run_serial(SMOKE_DAYS)
    pipe_sys, pipe_reports, pipe_makespan = _run_pipelined(SMOKE_DAYS)
    serial_sum = sum(r.update_time_s for r in serial_reports)
    assert pipe_makespan < serial_sum
    assert sum(r.keys_delivered for r in pipe_reports) == sum(
        r.keys_delivered for r in serial_reports
    )
    assert _final_state(pipe_sys) == _final_state(serial_sys)
