"""Tests of the benchmark itself: ``pytest bench/`` (smoke scale, seconds).

Not collected by tier-1, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import catalog, compare, pacer, trace, workloads  # noqa: E402

SMOKE_SECONDS = 2.0
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def run_cli(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full smoke run of every workload, through the command."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = run_cli(
        "--scale", "smoke", "--seconds", str(SMOKE_SECONDS),
        "--seed", "2019", "--out", str(out),
    )
    assert done.returncode == 0, done.stdout[-2000:]
    with open(out) as handle:
        return json.load(handle), done.stdout


def test_every_declared_name_is_printed_and_nothing_else(smoke):
    document, printed = smoke
    declared = catalog.load()
    assert [w["name"] for w in declared["workloads"]] == list(
        workloads.WORKLOADS
    )
    for entry in document["workloads"].values():
        assert set(entry["end_to_end"]) == set(declared["end_to_end"])
        assert set(entry["per_layer"]) == set(declared["per_layer"])
        assert entry["correct"] and entry["ops_failed"] == 0
        assert entry["ops_attempted"] >= 1
    for section in ("end_to_end", "per_layer"):
        for name in declared[section]:
            assert NAME.match(name), name
            assert re.search(rf"^\s+{re.escape(name)}\s", printed, re.M), name
    assert "setup_s" in declared["end_to_end"]
    for metric in declared["end_to_end"].values():
        assert 0 < metric["bound"] <= 0.25


def test_end_to_end_metrics_are_never_zero(smoke):
    document, _printed = smoke
    for workload, entry in document["workloads"].items():
        for name, metric in entry["end_to_end"].items():
            assert metric["value"] > 0, (workload, name)


def test_contract_line():
    for flag, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_cli(
            "--workload", "serve_churn", "--scale", "smoke", "--seed", "5",
            "--seconds", str(SMOKE_SECONDS), "--trace", flag,
        )
        assert done.returncode == 0, done.stdout[-2000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == set(catalog.load()[section])
        for metric in line["metrics"].values():
            assert set(metric) == {"value", "unit"}


def test_sim_metrics_repeat_for_a_seed_and_move_with_it():
    def sim_side(seed: int):
        result = workloads.execute(
            "retention_month", seed, SMOKE_SECONDS, "smoke", traced=False
        )
        sim = {
            name: value
            for name, value in result["end_to_end"].items()
            if catalog.clock(name) == "sim"
        }
        return result["sim_digest"], sim

    first, again, other = sim_side(2019), sim_side(2019), sim_side(7)
    assert first == again
    assert first[0] != other[0]
    assert first[1]["wire_bytes_per_key"] != other[1]["wire_bytes_per_key"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_accounts_for_its_wall_and_cleans_up(name, tmp_path):
    before = trace.probe_targets()
    path = tmp_path / "spans.json"
    result = workloads.execute(
        name, 2019, SMOKE_SECONDS, "smoke", traced=True, trace_path=str(path)
    )
    assert trace.probe_targets() == before
    layers = result["per_layer"]
    wall = sum(region["elapsed_s"] for region in result["regions"])
    attributed = sum(
        layers[metric] for metric in {probe.metric for probe in trace.PROBES}
    )
    assert attributed + layers["bench.unattributed_share"] * wall == (
        pytest.approx(wall, rel=1e-6)
    )
    assert 0 <= layers["bench.unattributed_share"] <= 0.15
    with open(path) as handle:
        spans = json.load(handle)
    assert spans["spans_written"] == len(spans["start_ns"]) > 0
    assert all(
        parent < index for index, parent in enumerate(spans["parent"])
    )
    assert all(end >= start for start, end in zip(
        spans["start_ns"], spans["end_ns"]
    ))


def test_static_overload_rung_sheds_and_lower_rungs_do_not():
    result = workloads.execute(
        "serve_static", 2019, 20.0, "smoke", traced=False
    )
    nominal, sixteen, overload = result["rungs"]
    assert nominal["shed"] == sixteen["shed"] == 0
    assert overload["shed"] > 0.01 * overload["requests"]
    assert not overload["sustained"]
    assert result["end_to_end"]["sustained_qps_per_node"] == 960.0
    # refusals under deliberate overload are not failed operations
    assert result["ops_failed"] == 0 and result["correct"]


def test_oracle_counts_a_lost_key_as_failed(monkeypatch):
    from repro.mint.cluster import MintCluster

    original = MintCluster.get

    def lossy(self, key, version):
        value = original(self, key, version)
        return value[:-1] if key.startswith(b"F:") else value

    run = workloads.Run(
        "fleet_ingest", 3, SMOKE_SECONDS, "smoke", None, workloads.Oracle()
    )
    with run.oracle.installed():
        workloads.fleet_ingest(run)
    monkeypatch.setattr(MintCluster, "get", lossy)
    verdict = run.oracle.check(run.system, 3)
    assert verdict["mismatched"] > 0
    summary = workloads.summarise(run, verdict)
    assert summary["ops_failed"] == verdict["mismatched"]
    assert summary["correct"] is False


def test_interpolated_percentile_sits_inside_its_bucket():
    buckets = [(1.0, 10), (1.02, 80), (1.0404, 10)]
    p50 = workloads.interpolated_percentile(buckets, 1.02, 50.0)
    assert 1.0 < p50 < 1.02
    assert workloads.interpolated_percentile(buckets, 1.02, 99.0) > 1.02
    assert workloads.interpolated_percentile([], 1.02, 50.0) == 0.0


def test_pacer_rescales_by_the_speed_around_each_stretch():
    clock = pacer.Pacer()
    unit = pacer.REFERENCE_UNIT_S
    # units that took 1x, 2x and 2x the reference, around two 1 s gaps
    clock.samples = [
        (0.0, unit), (1.0 + unit, 1.0 + 3 * unit),
        (2.0 + 3 * unit, 2.0 + 5 * unit),
    ]
    wall, reference = clock.measure(unit, 2.0 + 3 * unit)
    assert wall == pytest.approx(2.0)
    assert reference == pytest.approx(1.0 / 1.5 + 1.0 / 2.0)


def test_compare_verdicts():
    steady = {"value": 100.0, "q1": 99.0, "q3": 101.0}
    assert compare.verdict(steady, dict(steady, value=120.0), "higher", 0.1) == (
        "improved"
    )
    assert compare.verdict(steady, dict(steady, value=85.0), "higher", 0.1) == (
        "regressed"
    )
    assert compare.verdict(steady, dict(steady, value=105.0), "lower", 0.1) == (
        "unchanged"
    )
    noisy = {"value": 100.0, "q1": 80.0, "q3": 120.0}
    assert compare.verdict(steady, noisy, "lower", 0.1) == "unresolved"


def test_compare_command_flags_a_regression(smoke, tmp_path):
    document, _printed = smoke
    before = tmp_path / "before.json"
    after = tmp_path / "after.json"
    before.write_text(json.dumps(document))
    assert compare.main([str(before), str(before)]) == 0
    worse = json.loads(json.dumps(document))
    metric = worse["workloads"]["fleet_ingest"]["end_to_end"]["write_amp"]
    for field in ("value", "q1", "q3"):
        metric[field] *= 1.5
    after.write_text(json.dumps(worse))
    assert compare.main([str(before), str(after)]) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_static",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, check=False,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
