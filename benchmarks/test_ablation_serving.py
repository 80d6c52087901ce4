"""Ablation A13 — the read-serving fast path.

Two knobs control the serving tier: the **multi-get batch size** (how
many keys one scatter-gather engine call carries) and the frontend's
**coalescing window** (how long concurrent arrivals wait to share a
batch).  The first sweep measures read throughput per simulated
device-second across batch sizes on an identical zipfian read set — the
acceptance gate is the batched path at >= 3x per-key throughput with
byte-identical values.  The second sweep runs the full serving workload
across coalescing windows, with and without pipelined update cycles
churning the same fleet, and reports admitted p50/p99 against the SLO.

The overload case pins the admission-control contract: when a flash
crowd pushes offered load past the queue-depth bound, requests are shed
(and reported) while the p99 of *admitted* reads stays within the SLO —
tail latency is bounded by refusing work, not by queueing it.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import render_table
from repro.serving import ServingConfig
from repro.workloads.serving import (
    MIN_BATCHED_SPEEDUP,
    FlashCrowdConfig,
    ServingWorkloadConfig,
    run_multiget_ablation,
    run_serving,
)

BATCH_SWEEP = (1, 8, 64, 256)
WINDOW_SWEEP = (0.0, 0.002, 0.010)


@pytest.fixture(scope="module")
def batch_results():
    return {
        size: run_multiget_ablation(batch_size=size) for size in BATCH_SWEEP
    }


def test_ablation_a13_batch_size_sweep(batch_results, benchmark):
    print("\n=== Ablation A13: multi-get batch size ===")
    print(
        render_table(
            ["batch", "per-key keys/s", "batched keys/s", "speedup", "bytes"],
            [
                [
                    size,
                    f"{data['per_key']['keys_per_device_s']:,.0f}",
                    f"{data['batched']['keys_per_device_s']:,.0f}",
                    f"{data['speedup']:.2f}x",
                    "identical" if data["digests_match"] else "DIFFER",
                ]
                for size, data in batch_results.items()
            ],
        )
    )

    # Correctness first: every batch size returns byte-identical values,
    # and every arm of every sweep read the same bytes (one digest).
    digests = set()
    for size, data in batch_results.items():
        assert data["digests_match"], size
        digests.add(data["per_key"]["digest"])
        digests.add(data["batched"]["digest"])
    assert len(digests) == 1

    # The acceptance gate: the operating-point batch size clears 3x.
    assert batch_results[64]["speedup"] >= MIN_BATCHED_SPEEDUP

    # Bigger batches never serve fewer keys per device-second: dedup and
    # striping opportunities only grow with batch size.
    rates = [
        batch_results[size]["batched"]["keys_per_device_s"]
        for size in BATCH_SWEEP
    ]
    assert rates == sorted(rates)

    benchmark(lambda: batch_results[64]["speedup"])


def _window_config(window_s: float, updates: str) -> ServingWorkloadConfig:
    return ServingWorkloadConfig(
        days=1,
        duration_s=8.0,
        updates=updates,
        flash=None,
        serving=ServingConfig(coalesce_window_s=window_s),
    )


@pytest.fixture(scope="module")
def window_results():
    return {
        (window, updates): run_serving(
            _window_config(window, updates)
        ).data
        for window in WINDOW_SWEEP
        for updates in ("none", "pipelined")
    }


def test_ablation_a13_coalescing_window_sweep(window_results):
    print("\n=== Ablation A13: coalescing window vs latency ===")
    rows = []
    for (window, updates), data in sorted(window_results.items()):
        fleet = data["serving"]["fleet"]
        latency = data["serving"]["per_dc"]
        p50 = max(e["latency"].get("p50", 0.0) for e in latency.values())
        rows.append(
            [
                f"{window * 1000:.0f}ms",
                updates,
                f"{fleet['batched_keys'] / fleet['batches']:.2f}",
                f"{p50 * 1000:.3f}",
                f"{fleet['p99_s'] * 1000:.3f}",
                "met" if fleet["slo_met"] else "MISSED",
            ]
        )
    print(
        render_table(
            ["window", "updates", "mean batch", "p50 (ms)", "p99 (ms)",
             "SLO"],
            rows,
        )
    )

    for (window, updates), data in window_results.items():
        fleet = data["serving"]["fleet"]
        # No overload is configured, so nothing is shed and every
        # admitted read lands within the SLO even with update cycles
        # competing for the same devices.
        assert fleet["shed"] == 0, (window, updates)
        assert fleet["slo_met"], (window, updates)
        assert fleet["errors"] == 0, (window, updates)

    # A wider window gathers bigger batches (update churn or not).
    for updates in ("none", "pipelined"):
        means = [
            window_results[(w, updates)]["serving"]["fleet"]["batched_keys"]
            / window_results[(w, updates)]["serving"]["fleet"]["batches"]
            for w in WINDOW_SWEEP
        ]
        assert means == sorted(means), updates

    # The window is a latency floor: p50 under the 10 ms window sits
    # above p50 under no window.
    for updates in ("none", "pipelined"):
        def p50(window):
            per_dc = window_results[(window, updates)]["serving"]["per_dc"]
            return max(e["latency"]["p50"] for e in per_dc.values())

        assert p50(0.010) > p50(0.0), updates


def test_a13_flash_crowd_sheds_and_holds_slo():
    """Overload contract: shed rate is reported, admitted p99 holds."""
    config = ServingWorkloadConfig(
        days=1,
        qps_per_node=150.0,
        duration_s=8.0,
        flash=FlashCrowdConfig(multiplier=12.0, duration_s=3.0),
        updates="pipelined",
        serving=ServingConfig(
            coalesce_window_s=0.005, max_queue_depth_per_replica=2
        ),
    )
    data = run_serving(config).data
    fleet = data["serving"]["fleet"]
    assert fleet["shed"] > 0
    assert 0.0 < fleet["shed_rate"] < 1.0
    assert fleet["slo_met"], fleet["p99_s"]
    # Shedding is visible on the storage-layer counters too.
    assert data["group_reads"]["shed_gets"] == fleet["shed"]
