"""Tests for IPC aggregation, trends, performance, and reporting."""

import pytest

from repro.analysis.ipc import normalized_ipc, suite_mean_ipc, suite_normalized_ipc
from repro.analysis.performance import PerformancePoint, performance_table
from repro.analysis.reporting import format_figure_series, format_table, text_bar_chart
from repro.analysis.trends import (
    REDWOOD_COVE_IPC,
    extrapolate,
    fit_trend,
    halved_slope_estimate,
)
from repro.pipeline.stats import SimStats


class _FakeResult:
    def __init__(self, cycles, instructions):
        self.stats = SimStats(cycles=cycles, committed_instructions=instructions)


def test_suite_mean_is_mean_of_components():
    """The paper's [11] aggregation: mean cycles / mean instructions —
    NOT the mean of per-benchmark IPC ratios."""
    results = [_FakeResult(100, 100), _FakeResult(1000, 100)]
    # mean instr = 100, mean cycles = 550 -> 0.1818...; ratio-mean = 0.55
    assert suite_mean_ipc(results) == pytest.approx(100 / 550)


def test_suite_mean_empty():
    assert suite_mean_ipc([]) == 0.0


def test_normalized_ipc():
    base = _FakeResult(100, 200)
    scheme = _FakeResult(125, 200)
    assert normalized_ipc(scheme, base) == pytest.approx(0.8)


def test_suite_normalized():
    base = [_FakeResult(100, 100)] * 2
    scheme = [_FakeResult(200, 100)] * 2
    assert suite_normalized_ipc(scheme, base) == pytest.approx(0.5)


def test_trend_fit_exact_line():
    fit = fit_trend([1.0, 2.0, 3.0], [0.9, 0.8, 0.7])
    assert fit.slope == pytest.approx(-0.1)
    assert fit.at(4.0) == pytest.approx(0.6)
    assert extrapolate(fit, 4.0) == pytest.approx(0.6)
    # Points off any one line: the least-squares fit, not a pass-through.
    fit = fit_trend([1, 2, 3, 4], [1, 3, 2, 5])
    assert fit.slope == pytest.approx(1.1)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)


def test_halved_slope_is_less_pessimistic():
    fit = fit_trend([0.5, 1.0], [1.0, 0.8])
    linear = extrapolate(fit, REDWOOD_COVE_IPC)
    halved = halved_slope_estimate(fit, REDWOOD_COVE_IPC)
    assert halved > linear
    # Inside the measured range the halved estimate equals the fit.
    assert halved_slope_estimate(fit, 0.75) == pytest.approx(fit.at(0.75))


def test_trend_requires_two_points():
    with pytest.raises(ValueError):
        fit_trend([1.0], [1.0])


def test_performance_point_multiplies():
    point = PerformancePoint("mega", "nda", 1.27, relative_ipc=0.8,
                             relative_timing=1.05)
    assert point.relative_performance == pytest.approx(0.84)


def test_performance_table_grouping():
    points = [
        PerformancePoint("small", "nda", 0.5, 0.9, 1.0),
        PerformancePoint("mega", "nda", 1.2, 0.8, 1.05),
    ]
    table = performance_table(points)
    assert set(table["nda"]) == {"small", "mega"}


def test_format_table_alignment():
    text = format_table(["A", "Longer"], [["x", 1.23456], ["yy", 2.0]],
                        title="T", precision=2)
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "1.23" in text and "2.00" in text


def test_format_figure_series():
    text = format_figure_series({"nda": [(1, 0.5)]}, title="F")
    assert "nda" in text and "(1, 0.500)" in text


def test_bar_chart_monotone_bars():
    text = text_bar_chart(["a", "b"], [1.0, 0.5], width=10)
    bar_a, bar_b = text.splitlines()
    assert bar_a.count("█") > bar_b.count("█")
