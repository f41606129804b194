"""Tests for the experiment modules (fast, scaled-down runs).

T1 and S1 run max-rps searches that take ~a minute even in fast mode;
they are exercised through their building blocks here and in full by the
benchmark harness.
"""

import pytest

from repro.cluster import meiko_cs2
from repro.experiments import (
    ALL_EXPERIMENTS,
    run_experiment,
)
from repro.experiments.base import ExperimentReport
from repro.experiments.table1 import max_rps_cell
from repro.experiments.tables import (
    ComparisonRow,
    ascii_series,
    ascii_sparkline,
    render_comparison,
    render_table,
)
from repro.experiments import paper_data


# --------------------------------------------------------------- registry
def test_registry_is_complete():
    assert set(ALL_EXPERIMENTS) == {
        "T1", "T2", "T3", "T4", "T5", "F1", "F2", "F3",
        "S1", "S2", "S3",
        "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10",
        "X11", "X12", "X13",
    }
    for module in ALL_EXPERIMENTS.values():
        assert callable(module.run)


def test_run_experiment_unknown_id():
    with pytest.raises(KeyError):
        run_experiment("T9")


def test_run_experiment_case_insensitive():
    report = run_experiment("f1")
    assert report.exp_id == "F1"


# --------------------------------------------------------- fast experiments
FAST_IDS = ("T2", "T3", "T4", "T5", "F1", "F2", "F3", "S2", "S3",
            "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X9", "X10",
            "X11", "X12")


@pytest.mark.parametrize("exp_id", FAST_IDS)
def test_experiment_report_structure_and_shape(exp_id):
    report = run_experiment(exp_id, fast=True)
    assert isinstance(report, ExperimentReport)
    assert report.exp_id == exp_id
    assert report.table.strip()
    assert report.comparisons
    rendered = report.render()
    assert exp_id in rendered
    assert "paper vs measured" in rendered
    assert report.shape_holds, rendered


# ----------------------------------------------------- T1/S1 building block
def test_max_rps_cell_finds_positive_knee():
    best = max_rps_cell(meiko_cs2(2), 1.5e6, duration=8.0, cap=16)
    assert 1 <= best <= 16


# ---------------------------------------------------------------- rendering
def test_render_table_alignment_and_nan():
    text = render_table(["a", "bb"], [[1, 2.5], [float("nan"), None]],
                        title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert "2.50" in text
    assert "-" in lines[-1]


def test_render_comparison_verdicts():
    rows = [ComparisonRow("x", 1, 2, "check", ok=True),
            ComparisonRow("y", 1, 2, "check", ok=False),
            ComparisonRow("z", 1, 2, "check", ok=None)]
    text = render_comparison(rows)
    assert "yes" in text and "NO" in text


def test_sparkline_shape():
    line = ascii_sparkline([0, 1, 2, 3, 4])
    assert len(line) == 5
    assert line[0] < line[-1]        # block characters sort by height


def test_sparkline_constant_and_empty():
    assert ascii_sparkline([]) == ""
    flat = ascii_sparkline([3, 3, 3])
    assert len(set(flat)) == 1


def test_sparkline_compresses_to_width():
    line = ascii_sparkline(range(1000), width=40)
    assert len(line) == 40


def test_ascii_series_renders():
    text = ascii_series([0, 1, 5, 2], height=4, label="t")
    assert "█" in text
    assert text.count("\n") >= 4
    assert "t" in text


def test_ascii_series_empty():
    assert ascii_series([]) == "(no data)"


def test_experiment_report_shape_holds_logic():
    report = ExperimentReport(exp_id="Z", title="t", table="x",
                              comparisons=[ComparisonRow("a", 1, 1, "", ok=True),
                                           ComparisonRow("b", 1, 1, "", ok=None)])
    assert report.shape_holds
    report.comparisons.append(ComparisonRow("c", 1, 1, "", ok=False))
    assert not report.shape_holds


# --------------------------------------------------------------- paper data
def test_paper_data_quality_flags():
    for value in (paper_data.TABLE5["preprocessing"],
                  paper_data.SKEWED_TEST["round-robin"],
                  paper_data.OVERHEAD["parsing"]):
        assert value.quality in ("exact", "approx", "garbled")
        assert value.value > 0


def test_paper_analysis_constants():
    assert paper_data.ANALYSIS["p"] == 6
    assert paper_data.ANALYSIS["total_rps_s33"].value == pytest.approx(17.3)
