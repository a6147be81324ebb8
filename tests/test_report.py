import math
from fractions import Fraction

import numpy as np
import pytest

from qkepler import checks, geom
from qkepler.report import (CheckResult, Report, emit, report_from_json, row,
                            worse)


def sample_report():
    rows = (
        CheckResult("alpha", lhs=Fraction(-1, 8), rhs=-0.125,
                    residual=None, tolerance=None, passed=True),
        CheckResult("beta", lhs=None, rhs=None,
                    residual=3.0e-9, tolerance=1e-6, passed=True),
    )
    return Report("demo", {"n": 2, "sigma": 0}, rows, seed=7)


def test_passed_aggregates():
    rep = sample_report()
    assert rep.passed
    failing = Report("demo", {}, rep.results + (
        CheckResult("gamma", None, None, 1.0, 0.5, False),))
    assert not failing.passed


def test_text_format_frozen():
    text = emit(sample_report(), "text")
    assert text == (
        "command: demo\n"
        "  n: 2\n"
        "  sigma: 0\n"
        "  seed: 7\n"
        "alpha  pass  lhs=-1/8 rhs=-0.125\n"
        "beta   pass  residual=3e-09  tol=9.9999999999999995e-07\n"
        "result: pass\n"
    )


def test_csv_format_frozen():
    csv_text = emit(sample_report(), "csv")
    lines = csv_text.splitlines()
    assert lines[0] == "name,lhs,rhs,residual,tolerance,pass"
    assert lines[1] == "alpha,-1/8,-0.125,,,true"
    assert lines[2] == "beta,,,3e-09,9.9999999999999995e-07,true"


def test_float_rendering_is_17_digits():
    row = CheckResult("x", lhs=1.0 / 3.0, rhs=None, residual=None,
                      tolerance=None, passed=True)
    text = emit(Report("demo", {}, (row,)), "csv")
    assert "0.33333333333333331" in text


def test_json_round_trip():
    rep = sample_report()
    text = emit(rep, "json")
    back = report_from_json(text)
    assert back.command == rep.command
    assert back.seed == rep.seed
    assert back.passed == rep.passed
    assert [r.name for r in back.results] == ["alpha", "beta"]
    # exact rationals survive as strings, floats as floats
    assert back.results[0].lhs == "-1/8"
    assert back.results[1].residual == 3.0e-9
    # a second emission of the parsed report is identical
    assert emit(back, "json") == text


def test_json_is_deterministic():
    a = emit(sample_report(), "json")
    b = emit(sample_report(), "json")
    assert a == b


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit(sample_report(), "yaml")


def test_empty_report_is_valid():
    rep = Report("empty", {}, ())
    assert rep.passed
    assert emit(rep, "text").endswith("result: pass\n")
    assert emit(rep, "csv") == "name,lhs,rhs,residual,tolerance,pass\n"


def test_timestamp_rendered_when_present():
    rep = Report("demo", {}, (), timestamp="2024-05-01T00:00:00+00:00")
    assert "timestamp: 2024-05-01T00:00:00+00:00" in emit(rep, "text")


def test_row_with_nonfinite_residual_fails():
    assert row("x", residual=math.nan, passed=True).passed is False
    assert row("x", residual=-math.inf, passed=True).passed is False
    assert row("x", residual=0.5, tolerance=1.0, passed=True).passed is True
    # rows without a residual (counts, samples) are unaffected
    assert row("x", lhs=1, rhs=1, passed=True).passed is True


def test_tally_counts_outcomes_and_an_empty_one_fails():
    assert checks._tally("x", iter([True, np.bool_(True)])) == (
        "x", 2, 2, None, None, True)
    assert checks._tally("x", [True, False]) == ("x", 1, 2, None, None, False)
    # 0 = 0 checked nothing
    assert checks._tally("x", []) == ("x", 0, 0, None, None, False)
    assert type(checks._tally("x", [np.bool_(True)]).lhs) is int


def test_worst_accumulation_keeps_nan():
    assert worse(1.0, 2.0) == worse(2.0, 1.0) == 2.0
    assert math.isnan(worse(0.0, math.nan))  # max(0.0, nan) == 0.0
    worst = 0.0
    for r in (1e-9, math.nan, 2e-9):
        worst = worse(worst, r)
    assert math.isnan(worst)


def test_nan_residual_fails_its_check(monkeypatch):
    monkeypatch.setattr(geom, "metric_sweep",
                        lambda n, samples, seed: math.nan)
    rows = {r.name: r for r in checks.metric()}
    r = rows["metric[n=2]"]
    assert math.isnan(r.residual) and r.passed is False
    assert rows["quotient[n=2]"].passed is True
