#!/usr/bin/env python3
"""Run the repo benchmark.

    python3 bench/run.py --seed 2019 --out bench/out/result.json
        every workload, untraced then traced, every metric by name with
        unit and clock; exits non-zero when a correctness check fails

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        one workload; the last line of standard output is one JSON object
        {"correct", "attempted", "failed", "metrics"} holding the
        end-to-end metrics (--trace 0, no traced run is made) or the
        per-layer ones (--trace 1)

Each measurement runs in a fresh subprocess (``--child``), one after
another.  A run whose wall/CPU ratio shows it was descheduled is counted
in ``bench.disturbed_runs`` and, without ``--trace``, run again (at most
twice).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")

#: a timed region with wall/CPU above this lost the processor to others
MAX_WALL_OVER_CPU = 1.10
MAX_RERUNS = 2


def _prepare_imports() -> None:
    """Make ``repro`` and ``bench`` importable, whatever the caller's
    PYTHONPATH; refuse to run where the program is not checked out."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"bench/run.py: no program to measure under {source}")
    script_dir = os.path.dirname(os.path.abspath(__file__))
    # bench/ itself must not lead sys.path: its trace.py would shadow
    # the standard library's
    sys.path[:] = [p for p in sys.path if os.path.abspath(p) != script_dir]
    for path in (source, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


# ----------------------------------------------------------------------
# One measurement = one child process
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace) -> int:
    """Execute one workload in this process; print its result as JSON."""
    from bench import workloads

    trace_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"{args.workload}.trace.json")
    result = workloads.execute(
        args.workload, args.seed, args.seconds, args.scale,
        traced=bool(args.trace), trace_path=trace_path,
    )
    print(json.dumps(result), flush=True)
    # Skip interpreter teardown: freeing a fleet's worth of objects one
    # by one takes seconds and measures nothing.
    os._exit(0)


def _spawn(
    workload: str, seed: int, seconds: float, scale: str, traced: bool
) -> Dict[str, object]:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--scale", scale,
        "--trace", "1" if traced else "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        sys.exit(
            f"bench/run.py: workload {workload} exited {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, scale: str, traced: bool,
    reruns: int,
) -> Tuple[Dict[str, object], int]:
    """The least disturbed result of at most ``1 + reruns`` runs, and how
    many of them were disturbed."""
    best: Optional[Dict[str, object]] = None
    disturbed = 0
    for _attempt in range(1 + reruns):
        result = _spawn(workload, seed, seconds, scale, traced)
        if best is None or result["wall_over_cpu"] < best["wall_over_cpu"]:
            best = result
        if result["wall_over_cpu"] <= MAX_WALL_OVER_CPU:
            break
        disturbed += 1
    return best, disturbed


def measure_layers(
    workload: str, seed: int, seconds: float, scale: str,
    untraced: Dict[str, object], disturbed: int, reruns: int,
) -> Dict[str, object]:
    """The traced run, with the ``bench.*`` metrics that need the
    untraced run of the same inputs (``untraced``) beside it."""
    traced, more = measure(workload, seed, seconds, scale, True, reruns)
    layers = traced["per_layer"]
    layers["bench.trace_overhead_ratio"] = (
        traced["timed_reference_s"] / untraced["timed_reference_s"]
    )
    layers["bench.disturbed_runs"] = disturbed + more
    return traced


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _named(
    values: Dict[str, float], section: Dict[str, Dict[str, object]], what: str
) -> Dict[str, Dict[str, object]]:
    """``values`` as ``{name: {value, unit}}``; the catalog and the
    measured names must match exactly."""
    if set(values) != set(section):
        missing = sorted(set(section) - set(values))
        extra = sorted(set(values) - set(section))
        sys.exit(
            f"bench/run.py: {what} metrics differ from BENCHMARK.json "
            f"(not measured: {missing}; not declared: {extra})"
        )
    return {
        name: {"value": values[name], "unit": section[name]["unit"]}
        for name in section
    }


def _print_metrics(
    title: str, metrics: Dict[str, Dict[str, object]], share_of: float = 0.0
) -> None:
    from bench import catalog

    print(f"  {title}")
    for name, metric in metrics.items():
        value = metric["value"]
        line = (
            f"    {name:32s} {value:>16.6g} {metric['unit']:<8s} "
            f"{catalog.clock(name)}"
        )
        if share_of and metric["unit"] == "s" and catalog.clock(name) == "host":
            line += f"  {100.0 * value / share_of:5.1f}% of traced wall"
        print(line)


def _print_header(result: Dict[str, object]) -> None:
    print(
        f"== {result['workload']}  seed {result['seed']}  "
        f"{result['seconds']:g} s  scale {result['scale']}  "
        f"correct {'yes' if result['correct'] else 'NO'}  "
        f"ops {result['ops_attempted']} attempted / "
        f"{result['ops_failed']} failed  "
        f"sim_digest {result['sim_digest'][:16]}"
    )
    for rung in result["rungs"]:
        print(
            f"  rung {rung['qps_per_node']:g} qps/node: "
            f"{rung['requests']} requests, {rung['shed']} shed "
            f"({rung['shed_in_burst']} in overload), "
            f"p50 {rung['p50_ms']:.3f} ms p99 {rung['p99_ms']:.3f} ms, "
            f"working set {rung['working_set_keys']} keys / "
            f"{rung['working_set_bytes']} B, "
            f"sustained {'yes' if rung['sustained'] else 'no'}"
        )


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(args: argparse.Namespace) -> int:
    """Measure the chosen workloads; print, write, and judge them.

    Per workload: ``--repeats`` untraced runs, then (unless ``--trace 0``)
    one traced run.  With ``--trace`` given, the last line printed is the
    single JSON object the benchmark contract asks for.
    """
    from bench import catalog

    declared = catalog.load()
    # Under the contract's time cap a disturbed run is reported, not
    # repeated: repeats cost most exactly when the box is slowest, and
    # reference seconds already absorb the disturbance.
    reruns = MAX_RERUNS if args.trace is None else 0
    names = (
        [args.workload] if args.workload
        else [entry["name"] for entry in declared["workloads"]]
    )
    document: Dict[str, object] = {
        "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "repeats": args.repeats, "workloads": {},
    }
    for name in names:
        runs = [
            measure(name, args.seed, args.seconds, args.scale, False, reruns)
            for _repeat in range(args.repeats)
        ]
        disturbed = sum(count for _result, count in runs)
        results = [result for result, _count in runs]
        end_to_end = _named(
            results[0]["end_to_end"], declared["end_to_end"], "end-to-end"
        )
        for metric, row in end_to_end.items():
            values = [result["end_to_end"][metric] for result in results]
            row["q1"], row["value"], row["q3"] = _quartiles(values)
            row["values"] = values
            row["clock"] = catalog.clock(metric)
        _print_header(results[0])
        _print_metrics(
            f"end-to-end (untraced, median of {args.repeats})", end_to_end
        )
        entry: Dict[str, object] = {
            "end_to_end": end_to_end, "runs": results,
        }
        if args.trace != 0:
            traced = measure_layers(
                name, args.seed, args.seconds, args.scale,
                untraced=results[0], disturbed=disturbed, reruns=reruns,
            )
            results.append(traced)
            layers = _named(
                traced["per_layer"], declared["per_layer"], "per-layer"
            )
            for metric, row in layers.items():
                row["clock"] = catalog.clock(metric)
            _print_metrics(
                "per-layer (traced run)", layers, traced["timed_elapsed_s"]
            )
            entry["per_layer"] = layers
        correct = all(result["correct"] for result in results)
        if len({result["sim_digest"] for result in results}) != 1:
            print(f"bench/run.py: {name}: sim_digest differs between runs")
            correct = False
        entry.update(
            correct=correct,
            ops_attempted=results[-1]["ops_attempted"],
            ops_failed=max(result["ops_failed"] for result in results),
            sim_digest=results[0]["sim_digest"],
        )
        document["workloads"][name] = entry
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    all_correct = all(
        entry["correct"] for entry in document["workloads"].values()
    )
    if not all_correct:
        print("bench/run.py: a correctness check FAILED")
    if args.trace is not None:
        entry = document["workloads"][args.workload]
        section = "per_layer" if args.trace else "end_to_end"
        print(json.dumps({
            "correct": entry["correct"],
            "attempted": entry["ops_attempted"],
            "failed": entry["ops_failed"],
            "metrics": {
                name: {"value": row["value"], "unit": row["unit"]}
                for name, row in entry[section].items()
            },
        }))
    return 0 if all_correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", help="run only this workload (default: all four)"
    )
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed region the work is sized for "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="with --workload: 0 skips the traced run and ends with the "
        "end-to-end metrics as one JSON line; 1 ends with the per-layer "
        "metrics as one JSON line",
    )
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="untraced runs per workload; medians and quartiles are reported",
    )
    parser.add_argument("--out", help="write the full result here as JSON")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_imports()
    from bench import catalog, workloads

    if args.seconds is None:
        args.seconds = float(catalog.load()["run_seconds"])
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds must be positive and --repeats at least 1")
    if args.workload and args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; one of "
            + ", ".join(workloads.WORKLOADS)
        )
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload")
    if args.child:
        return _child(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
