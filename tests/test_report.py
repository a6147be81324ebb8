import json
import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest

from qkepler import checks
from qkepler.report import CheckResult, Report, emit


def sample_report():
    rows = (
        CheckResult("alpha", lhs=Fraction(-1, 8), rhs=-0.125,
                    tolerance=None, passed=True),
        CheckResult("beta", lhs=None, rhs=None, tolerance=1e-6, passed=True),
    )
    return Report("demo", {"n": 2, "sigma": 0}, rows, seed=7)


def test_passed_aggregates():
    rep = sample_report()
    assert rep.passed
    failing = Report("demo", {}, rep.results + (
        CheckResult("gamma", None, None, 0.5, False),))
    assert not failing.passed


def test_text_format_frozen():
    text = emit(sample_report(), "text")
    assert text == (
        "command: demo\n"
        "  n: 2\n"
        "  sigma: 0\n"
        "  seed: 7\n"
        "alpha  pass  lhs=-1/8 rhs=-0.125\n"
        "beta   pass  tol=9.9999999999999995e-07\n"
        "result: pass\n"
    )


def test_csv_format_frozen():
    csv_text = emit(sample_report(), "csv")
    lines = csv_text.splitlines()
    assert lines == ["name,lhs,rhs,tolerance,pass",
                     "alpha,-1/8,-0.125,,true",
                     "beta,,,9.9999999999999995e-07,true"]


def test_float_rendering_is_17_digits():
    row = CheckResult("x", lhs=1.0 / 3.0, rhs=None, tolerance=None,
                      passed=True)
    text = emit(Report("demo", {}, (row,)), "csv")
    assert "0.33333333333333331" in text


def test_json_round_trip():
    rep = sample_report()
    payload = json.loads(emit(rep, "json"))
    assert payload["schema"] == "qkepler-report-2"
    assert (payload["command"], payload["seed"], payload["passed"]) == (
        rep.command, rep.seed, rep.passed)
    alpha, beta = payload["results"]
    assert alpha == {"name": "alpha", "lhs": "-1/8", "rhs": -0.125,
                     "tolerance": None, "passed": True}
    # exact rationals come back as strings, floats to the last bit
    assert beta["tolerance"] == 1e-6


@pytest.mark.parametrize("value", [
    0.0, -0.0, math.inf, -math.inf, 5e-324, sys.float_info.max,
    -sys.float_info.max, 0.1, 1.0 / 3.0])
def test_json_prints_a_float_as_its_repr(value):
    report = Report("demo", {}, (CheckResult("x", value, None, None, True),))
    text = emit(report, "json")
    # json spells repr's inf as Infinity
    spelled = {math.inf: "Infinity", -math.inf: "-Infinity"}.get(
        value, repr(value))
    assert f'"lhs": {spelled},' in text
    back = json.loads(text)["results"][0]["lhs"]
    assert struct.pack("<d", back) == struct.pack("<d", value)


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
    assert emit(rep, "csv") == "name,lhs,rhs,tolerance,pass\n"


def test_timestamp_rendered_when_present():
    rep = Report("demo", {}, (), timestamp="2024-05-01T00:00:00+00:00")
    assert "timestamp: 2024-05-01T00:00:00+00:00" in emit(rep, "text")


def test_tally_counts_outcomes_and_an_empty_one_fails():
    assert checks._tally("x", iter([True, np.bool_(True)])) == (
        "x", 2, 2, None, True)
    assert checks._tally("x", [True, False]) == ("x", 1, 2, None, False)
    # 0 = 0 checked nothing
    assert checks._tally("x", []) == ("x", 0, 0, None, False)
    assert type(checks._tally("x", [np.bool_(True)]).lhs) is int

