"""Tests for the markdown report generator."""

import pytest

from repro.bench.report import _markdown_table, generate_report


@pytest.fixture(scope="module")
def quick_report():
    """One quick report shared by the content checks (it takes seconds)."""
    return generate_report(quick=True, budget=1500)


class TestMarkdownTable:
    def test_structure(self):
        text = _markdown_table(["a", "b"], [{"a": 1, "b": 2.5}])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2.50 |"

    def test_missing_cells(self):
        text = _markdown_table(["a", "b"], [{"a": 1}])
        assert "| 1 |  |" in text


class TestReport:
    def test_quick_report_complete(self, quick_report):
        for heading in (
            "# Evaluation report",
            "## Table I",
            "## Table II",
            "## Fig. 1",
            "## Fig. 2",
            "## Fig. 3",
            "## Fig. 4",
            "## Fig. 5",
            "## Fig. 6",
            "## Fig. 7",
        ):
            assert heading in quick_report, heading

    def test_report_cli(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        path = tmp_path / "report.md"
        assert main(["report", "--quick", "--output", str(path)]) == 0
        assert path.read_text().startswith("# Evaluation report")

    def test_indicators_in_fig1_section(self, quick_report):
        assert "hypervolume" in quick_report
        assert "coverage" in quick_report
