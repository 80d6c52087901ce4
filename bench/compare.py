#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py before.json after.json

One row per (workload, end-to-end metric): both values, the ratio
after/before (base: before), and a verdict from the metric's bound in
``BENCHMARK.json``:

* ``regressed``  - after is worse than before by more than the bound
* ``improved``   - after is better than before by more than the bound
* ``unchanged``  - the difference is within the bound
* ``unresolved`` - either file's own quartile spread (``--repeats``)
  exceeds the bound, so the difference cannot be told from noise

Then, per workload, whether ``sim_digest`` is equal (a host-only change
must leave it equal) and the share of operations that failed.  Exits
non-zero when any row regressed.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Sequence

sys.path.insert(
    0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
from bench import catalog  # noqa: E402  (needs the path line above)


def spread(metric: Dict[str, object]) -> float:
    """Quartile distance as a share of the median (0 for one run)."""
    median = metric["value"]
    return (metric["q3"] - metric["q1"]) / median if median else 0.0


def verdict(
    before: Dict[str, object], after: Dict[str, object],
    better: str, bound: float,
) -> str:
    if max(spread(before), spread(after)) > bound:
        return "unresolved"
    base = before["value"]
    if not base:
        return "unchanged" if not after["value"] else "unresolved"
    change = (after["value"] - base) / base
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare(
    before: Dict[str, object], after: Dict[str, object]
) -> List[Dict[str, object]]:
    """Rows for every workload and metric the two files share."""
    declared = catalog.load()["end_to_end"]
    rows = []
    for workload, old in before["workloads"].items():
        new = after["workloads"].get(workload)
        if new is None:
            continue
        for name, spec in declared.items():
            a, b = old["end_to_end"][name], new["end_to_end"][name]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "clock": catalog.clock(name),
                "before": a["value"],
                "after": b["value"],
                "ratio": b["value"] / a["value"] if a["value"] else None,
                "bound": spec["bound"],
                "verdict": verdict(a, b, spec["better"], spec["bound"]),
            })
    return rows


def failed_share(entry: Dict[str, object]) -> float:
    return entry["ops_failed"] / max(1, entry["ops_attempted"])


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) != 2:
        sys.exit(__doc__.strip().split("\n\n")[0] + "\n\nusage: "
                 "python3 bench/compare.py before.json after.json")
    with open(paths[0]) as handle:
        before = json.load(handle)
    with open(paths[1]) as handle:
        after = json.load(handle)
    if (before["seed"], before["seconds"], before["scale"]) != (
        after["seed"], after["seconds"], after["scale"]
    ):
        print("note: the two files were run with different seed/seconds/"
              "scale; sim metrics and digests are not comparable")
    rows = compare(before, after)
    print(f"{'workload':16s} {'metric':26s} {'before':>12s} {'after':>12s} "
          f"{'after/before':>12s} {'bound':>6s}  verdict")
    for row in rows:
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.4f}"
        print(
            f"{row['workload']:16s} {row['metric']:26s} "
            f"{row['before']:12.5g} {row['after']:12.5g} {ratio:>12s} "
            f"{row['bound']:6.2f}  {row['verdict']} "
            f"[{row['unit']}, {row['clock']}]"
        )
    for workload, old in before["workloads"].items():
        new = after["workloads"].get(workload)
        if new is None:
            continue
        same = old["sim_digest"] == new["sim_digest"]
        print(
            f"{workload}: sim_digest {'equal' if same else 'DIFFERS'}; "
            f"failed operations {failed_share(old):.4%} -> "
            f"{failed_share(new):.4%}"
        )
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    if regressed:
        print(f"{len(regressed)} metric(s) regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
