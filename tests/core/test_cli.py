"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import COMMANDS, main


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    output = capsys.readouterr().out
    assert "GET url/2 (deduplicated)" in output
    assert "software WA" in output


def test_dedup_sweep_command(capsys):
    assert main(["dedup-sweep"]) == 0
    output = capsys.readouterr().out
    assert "bandwidth saved" in output
    assert "90%" in output


def test_fig5_command_small(capsys):
    assert main(["fig5", "--keys", "24"]) == 0
    output = capsys.readouterr().out
    assert "QinDB" in output and "LSM" in output
    assert "total WA" in output


def test_fig9_command_small(capsys):
    assert main(["fig9", "--days", "3"]) == 0
    output = capsys.readouterr().out
    assert "Pearson r" in output


def test_demo_json(capsys):
    assert main(["demo", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["operations"][0]["operation"] == "GET url/3"
    assert data["stats"]["memtable_items"] >= 0


def test_fig5_json(capsys):
    assert main(["fig5", "--keys", "24", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    names = [row["engine"] for row in data["engines"]]
    assert names == ["QinDB", "LSM"]
    assert all(row["total_write_amplification"] > 0 for row in data["engines"])


def test_fig9_json(capsys):
    assert main(["fig9", "--days", "3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["days"]) == 3
    assert "pearson_r" in data


def test_dedup_sweep_json(capsys):
    assert main(["dedup-sweep", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["points"]) == 5
    assert data["points"][-1]["duplicates"] == 0.9


def test_observe_command(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main(["observe", "--cycles", "1", "--trace-out", str(trace_path)]) == 0
    output = capsys.readouterr().out
    assert "transmit" in output and "spans recorded" in output
    trace = json.loads(trace_path.read_text())
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_observe_json(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main(
        ["observe", "--cycles", "1", "--json", "--trace-out", str(trace_path)]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["cycles"][0]["version"] == 1
    assert {"stages", "highlights", "metrics", "metrics_delta"} <= set(data)
    assert data["trace_out"] == str(trace_path)
    # per-track ts monotonicity in the exported Chrome trace
    trace = json.loads(trace_path.read_text())
    by_tid = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "X":
            by_tid.setdefault(event["tid"], []).append(event["ts"])
    for series in by_tid.values():
        assert series == sorted(series)


def test_month_command_serial(capsys):
    assert main(["month", "--days", "2"]) == 0
    output = capsys.readouterr().out
    assert "serial" in output and "month" in output
    assert "makespan" in output


def test_month_command_pipelined_json(capsys):
    assert main(["month", "--days", "2", "--pipelined", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mode"] == "pipelined"
    assert data["days"] == 2
    assert len(data["cycles"]) == 3  # bootstrap + 2 days
    assert [c["version"] for c in data["cycles"]] == [1, 2, 3]
    # Overlap shortens the month below the serial sum of update times.
    assert data["makespan_s"] < data["sum_update_time_s"]
    # Every cycle carries its own stage breakdown even though they ran
    # interleaved on one kernel.
    for cycle in data["cycles"]:
        stages = {row["stage"] for row in cycle["stages"]}
        assert {"build", "transmit", "gray_release"} <= stages


def test_month_serial_and_pipelined_agree_on_outcome(capsys):
    assert main(["month", "--days", "2", "--json"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert main(["month", "--days", "2", "--pipelined", "--json"]) == 0
    pipelined = json.loads(capsys.readouterr().out)
    assert serial["mode"] == "serial"
    assert serial["keys_delivered"] == pipelined["keys_delivered"]
    serial_ratios = [c["dedup_ratio"] for c in serial["cycles"]]
    pipelined_ratios = [c["dedup_ratio"] for c in pipelined["cycles"]]
    assert serial_ratios == pytest.approx(pipelined_ratios)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_command_is_required():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv", [["perf"], ["serve", "--check", "x"]], ids=" ".join
)
def test_retired_gate_surface_is_rejected(argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


#: the workload entry point each gated command reports from
_RUNNERS = {
    "bandwidth": "repro.workloads.bandwidth.run_bandwidth",
    "serve": "repro.workloads.serving.run_serving_bench",
}


def _bandwidth_report(digest_match=True, clean=True):
    return {"delivered_digest_match": digest_match, "audit": {"clean": clean}}


def _serve_report(digests_match=True, speedup=4.0, slo_met=True):
    return {
        "ablation": {"digests_match": digests_match, "speedup": speedup},
        "serving": {"fleet": {"slo_met": slo_met}},
    }


@pytest.mark.parametrize(
    "command, report, expected",
    [
        ("bandwidth", _bandwidth_report(), 0),
        ("bandwidth", _bandwidth_report(digest_match=False), 1),
        ("bandwidth", _bandwidth_report(clean=False), 1),
        ("serve", _serve_report(), 0),
        ("serve", _serve_report(digests_match=False), 1),
        ("serve", _serve_report(speedup=2.9), 1),
        ("serve", _serve_report(slo_met=False), 1),
    ],
    ids=[
        "bandwidth-ok", "bandwidth-digests-differ", "bandwidth-audit-dirty",
        "serve-ok", "serve-digests-differ", "serve-speedup-under-floor",
        "serve-slo-missed",
    ],
)
def test_exit_code_is_the_hard_contracts(
    monkeypatch, capsys, command, report, expected
):
    """No flag arms the contracts: a broken report alone exits 1."""
    monkeypatch.setattr(_RUNNERS[command], lambda *args, **kwargs: report)
    assert main([command, "--json"]) == expected
    assert json.loads(capsys.readouterr().out) == report


#: every subcommand at its smallest arguments
SMALLEST = {
    "demo": [],
    "fig5": ["--keys", "24"],
    "fig9": ["--days", "3"],
    "month": ["--days", "2"],
    "dedup-sweep": [],
    "report": ["--days", "4"],
    "observe": ["--cycles", "1"],
    "bandwidth": ["--days", "1"],
    "serve": ["--days", "1", "--duration", "2"],
    "chaos": [],
    "health": ["--cycles", "2"],
    "rebalance": ["--days", "4", "--split-day", "2"],
}


def test_smallest_arguments_cover_the_command_table():
    assert set(SMALLEST) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(SMALLEST))
def test_command_table_contract(name, capsys, tmp_path, monkeypatch):
    """One shape for every row: ``--json`` prints the dict ``run``
    returned, ``render`` consumes that same dict, and the exit code is
    ``ok`` of it."""
    monkeypatch.chdir(tmp_path)  # ``report`` writes REPORT.md here
    code = main([name, *SMALLEST[name], "--json"])
    data = json.loads(capsys.readouterr().out)
    _help, _add_arguments, _run, render, ok = COMMANDS[name]
    render(data)
    assert capsys.readouterr().out.strip()
    assert code == (0 if ok(data) else 1)
    assert code == 0  # the smallest run of every command is a healthy one
