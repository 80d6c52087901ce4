"""Tests for the markdown report generator."""

import pytest

from repro.analysis.report import ReportRow
from repro.cli import main


def test_report_rows_render():
    row = ReportRow("claim", "paper-value", "measured-value", True)
    assert row.holds


@pytest.mark.slow
def test_generate_report_end_to_end(tmp_path):
    path = tmp_path / "REPORT.md"
    all_hold = main(["report", "--days", "4", "--output", str(path)]) == 0
    content = path.read_text()
    assert "# DirectLoad reproduction" in content
    assert "Figure 5 headline" in content
    assert "Pearson r" in content
    assert "write amplification" in content
    # The quick report's claims hold on the pinned seeds.
    assert all_hold
    assert "All claims hold." in content
