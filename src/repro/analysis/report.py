"""A self-contained experiment report generator.

``python -m repro report`` runs quick-scale versions of the headline
experiments and writes a markdown report with paper-vs-measured rows —
the artifact a reviewer or downstream user wants first, without waiting
for the full benchmark suite.

Each section reuses the exact library code the benchmarks drive; only
the scales differ (documented per section).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List


@dataclass
class ReportRow:
    """One claim: what the paper says vs what this run measured."""

    claim: str
    paper: str
    measured: str
    holds: bool


def _write_amplification_rows() -> List[ReportRow]:
    from repro.workloads.fig5 import run_fig5

    # Scale: 192 keys x 16 KB x 10 versions (``repro fig5`` runs smaller).
    engines = {
        row["engine"]: row
        for row in run_fig5(192, 16 * 1024, 10)["engines"]
    }
    q_wa = engines["QinDB"]["total_write_amplification"]
    l_wa = engines["LSM"]["total_write_amplification"]
    q_mbs = engines["QinDB"]["user_write_mean_mbs"]
    l_mbs = engines["LSM"]["user_write_mean_mbs"]
    throughput_gain = q_mbs / l_mbs
    return [
        ReportRow(
            "QinDB write amplification <= 2.5x",
            "<= 2.5x",
            f"{q_wa:.2f}x",
            q_wa <= 2.5,
        ),
        ReportRow(
            "LSM write amplification is many-fold QinDB's",
            "20-25x vs <= 2.5x",
            f"{l_wa:.1f}x vs {q_wa:.2f}x",
            l_wa > 3 * q_wa,
        ),
        ReportRow(
            "sustained write throughput improved ~3x",
            "3.5 vs 1.5 MB/s",
            f"{q_mbs:.2f} vs {l_mbs:.2f} MB/s ({throughput_gain:.1f}x)",
            throughput_gain > 2.0,
        ),
    ]


def _dedup_rows(days: int = 8) -> List[ReportRow]:
    from repro.workloads.month import run_fig9

    # Scale: the ``repro fig9`` fleet and schedule — whose dedup ratio
    # *varies* by design — for the correlation.  The paper's 63% saving
    # is at its typical ~70% duplicate ratio: measure the saving there
    # (mutation 0.3) on the same fleet afterwards.
    data, system = run_fig9(days)
    correlation = data["pearson_r"]
    typical_savings = [
        system.run_update_cycle(mutation_rate=0.3).bandwidth_saving_ratio
        for _ in range(3)
    ]
    mean_saving = sum(typical_savings) / len(typical_savings)
    inconsistency = max(r.inconsistency_rate for r in system.reports)
    return [
        ReportRow(
            "bandwidth saved by deduplication at ~70% duplicates",
            "63%",
            f"{mean_saving * 100:.0f}% (mean over {len(typical_savings)} versions)",
            0.40 < mean_saving < 0.85,
        ),
        ReportRow(
            "update time anti-correlates with dedup ratio",
            "strongly negative",
            f"Pearson r = {correlation:.3f}",
            correlation < -0.6,
        ),
        ReportRow(
            "cross-region inconsistency under 0.1%",
            "< 0.1%",
            f"max {inconsistency * 100:.4f}%",
            inconsistency < 0.001,
        ),
    ]


def collect_sections(days: int = 8) -> List[tuple]:
    """Run the quick experiments; the structured (title, rows) sections.

    The single source both renderers consume: ``generate_report`` folds
    it into markdown, ``repro report --json`` emits it as JSON.
    """
    return [
        ("Storage engine (Figure 5 headline)", _write_amplification_rows()),
        ("Delivery pipeline (Figures 9/10 headline)", _dedup_rows(days)),
    ]


def sections_to_dict(sections: List[tuple]) -> dict:
    """JSON-ready view of ``collect_sections`` output."""
    return {
        "sections": [
            {
                "title": title,
                "rows": [asdict(row) for row in rows],
            }
            for title, rows in sections
        ],
        "all_hold": all(row.holds for _, rows in sections for row in rows),
    }


def generate_report(sections: List[tuple]) -> str:
    """Render :func:`collect_sections`' results as the markdown report."""
    lines = [
        "# DirectLoad reproduction — quick report",
        "",
        "Quick-scale runs of the headline experiments (see EXPERIMENTS.md",
        "for the full benchmark-suite numbers).  Deterministic: reruns",
        "produce identical values.",
        "",
    ]
    all_hold = True
    for title, rows in sections:
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| claim | paper | measured | holds |")
        lines.append("|---|---|---|---|")
        for row in rows:
            mark = "yes" if row.holds else "NO"
            all_hold = all_hold and row.holds
            lines.append(
                f"| {row.claim} | {row.paper} | {row.measured} | {mark} |"
            )
        lines.append("")
    lines.append(
        "All claims hold." if all_hold else "SOME CLAIMS DID NOT HOLD."
    )
    lines.append("")
    return "\n".join(lines)
