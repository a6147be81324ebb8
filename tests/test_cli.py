import argparse
import contextlib
import inspect
import io
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from qkepler import checks, geom, qlinalg, radial, rep, spectral
from qkepler.cli import _build_parser, run
from qkepler.laurent import Laurent
from qkepler.rep import HighestWeight

SRC = os.path.dirname(os.path.dirname(os.path.abspath(checks.__file__)))


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out


def test_spectrum_table(capsys):
    code = run(["spectrum", "--n", "2", "--sigma", "0", "--imax", "3"])
    out = out_of(capsys)
    assert code == 0
    assert "lhs=-1/8 rhs=-0.125" in out
    assert "E[I=3]" in out


def test_degeneracy_table_csv(capsys):
    code = run(["degeneracy", "--n", "2", "--sigma", "0", "--imax", "2",
                "--format", "csv"])
    out = out_of(capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,lhs,rhs,residual,tolerance,pass"
    assert [ln.split(",")[1] for ln in lines[1:]] == ["1", "6", "20"]


def test_empty_table_is_valid(capsys):
    # an empty table would pass vacuously, so its size is rejected
    code = run(["spectrum", "--n", "2", "--sigma", "0", "--imax", "-1"])
    assert code == 2
    assert out_of(capsys) == ""


def test_ktype_table(capsys):
    code = run(["ktype", "--n", "2", "--sigma", "0", "--imax", "1"])
    out = out_of(capsys)
    assert code == 0
    assert "(-1,-1,-2,-2)" in out
    assert "dim[I=1]     pass  lhs=6 rhs=6" in out


def test_wavefunction_sampling(capsys):
    code = run(["wavefunction", "--n", "2", "--sigma", "1", "--k", "2",
                "--l", "0", "--points", "5", "--format", "json"])
    out = out_of(capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["results"]) == 5
    assert payload["passed"] is True


def test_residual_commands(capsys):
    # the exact identity at m + 3 points, as in the gate
    assert run(["residual", "kepler", "--n", "2", "--sigma", "1",
                "--k", "2", "--l", "1"]) == 0
    assert "kepler-ode  pass  lhs=4 rhs=4" in out_of(capsys)
    assert run(["residual", "oscillator", "--n", "3", "--sigma", "0",
                "--k", "3", "--l", "0"]) == 0
    assert "oscillator-ode  pass  lhs=5 rhs=5" in out_of(capsys)


@pytest.mark.parametrize("which", ["kepler", "oscillator"])
def test_residual_past_the_double_range(which, capsys):
    # t^200 is far past 1e308, but the identity never forms a power of t
    # or r: it reads the Laguerre polynomial alone, in ints
    code = run(["residual", which, "--n", "2", "--sigma", "0", "--k", "1",
                "--l", "200"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert f"{which}-ode  pass  lhs=3 rhs=3" in captured.out


def test_eigensolve_command(capsys):
    # at l = 200 a finite-difference domain would reach t ~ 8e4
    for l, count in ((0, 5), (200, 3)):
        code = run(["eigensolve", "--n", "2", "--sigma", "0", "--l", str(l),
                    "--count", str(count)])
        out = out_of(capsys)
        assert code == 0
        assert out.count("  pass  ") == count
        assert f"E[{count - 1}]" in out
    # each row: the exact level, and the far end of its enclosure
    assert run(["eigensolve", "--n", "2", "--sigma", "0", "--l", "0",
                "--count", "2", "--format", "json"]) == 0
    rows = json.loads(out_of(capsys))["results"]
    assert [(r["lhs"], r["rhs"]) for r in rows] == [
        ("-1/8", float(Fraction(-1, 8) * (1 - Fraction(1e-10)))),
        ("-1/18", float(Fraction(-1, 18) * (1 - Fraction(1e-10))))]


def test_eigensolve_failing_tolerance(monkeypatch, capsys):
    # an exact energy off by 1e-6 of itself, either way, is past the gate's
    # bound of 1e-10: every level fails, in the command and in the check
    energy = spectral.energy
    for factor in (1 + Fraction(1, 10 ** 6), 1 - Fraction(1, 10 ** 6)):
        with monkeypatch.context() as mp:
            mp.setattr(spectral, "energy",
                       lambda p, I: energy(p, I) * factor)
            code = run(["eigensolve", "--n", "2", "--sigma", "0", "--l", "0",
                        "--count", "3"])
            out = out_of(capsys)
            assert code == 1
            assert [line.split()[:2] for line in out.splitlines()
                    if line.startswith("E[")] \
                == [[f"E[{i}]", "FAIL"] for i in range(3)]
            assert run(["verify", "eigensolve"]) == 1
            out = out_of(capsys)
            for n in (2, 3):
                assert f"eigensolve[n={n}]  FAIL  lhs=0 rhs=36" in out


def wavefunction_rows(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(["wavefunction", *argv, "--format", "json"])
    return code, json.loads(buf.getvalue())["results"]


def test_normalized_wavefunction_with_huge_norm():
    # the squared norm is about e^846; the samples are 5e-181 .. 1.2e-104
    code, rows = wavefunction_rows(["--n", "6", "--sigma", "10", "--k", "40",
                                    "--l", "40", "--normalized"])
    assert code == 0
    vals = [r["rhs"] for r in rows]
    assert len(vals) == 9 and all(r["passed"] for r in rows)
    assert 5e-181 < vals[0] < 6e-181 and 1.1e-104 < vals[-1] < 1.3e-104


def test_normalized_wavefunction_far_out():
    # R = t^200 exp(-t/202) with squared norm 101^405 * 404 * 403!;
    # values below the smallest double read 0, the rest are finite
    code, rows = wavefunction_rows(["--n", "2", "--sigma", "0", "--k", "1",
                                    "--l", "200", "--hi", "1000",
                                    "--normalized"])
    assert code == 0
    t = np.array([r["lhs"] for r in rows])
    vals = np.array([r["rhs"] for r in rows])
    log_norm2 = 405 * math.log(101) + math.log(404) + math.lgamma(404)
    want = np.exp(200 * np.log(t) - t / 202 - 0.5 * log_norm2)
    assert list(vals[:4]) == [0.0] * 4
    assert 1.7e-307 < vals[4] and vals[8] < 2.4e-248
    np.testing.assert_allclose(vals[4:], want[4:], rtol=1e-10, atol=0.0)


def test_wavefunction_past_the_double_range_fails():
    # the bare profile reaches about e^1376, which no double holds
    code, rows = wavefunction_rows(["--n", "2", "--sigma", "0", "--k", "1",
                                    "--l", "200", "--hi", "1000"])
    assert code == 1
    assert rows[0]["passed"] and 0.0 < rows[0]["rhs"] < 1e-139
    assert all(not r["passed"] for r in rows[1:])


def test_wavefunction_on_a_laguerre_node_reads_zero():
    # L^3_1(2t/3) = 4 - 2t/3 vanishes at t = 6, where log|L| is -inf
    code, rows = wavefunction_rows(["--n", "2", "--sigma", "0", "--k", "2",
                                    "--l", "0", "--lo", "6", "--hi", "6",
                                    "--points", "1"])
    assert code == 0
    assert rows == [{"name": "sample[0]", "lhs": 6.0, "rhs": 0.0,
                     "residual": None, "tolerance": None, "passed": True}]


def test_wavefunction_sample_past_the_double_range_reads_inf():
    # t^100 e^(-t/102) at t = 10200 is about e^823: the sample overflows
    code, rows = wavefunction_rows(["--n", "2", "--sigma", "0", "--k", "1",
                                    "--l", "100", "--lo", "10200", "--hi",
                                    "10200", "--points", "1"])
    assert code == 1
    assert [(r["rhs"], r["passed"]) for r in rows] == [(math.inf, False)]


@pytest.mark.parametrize("lo, hi, points", [
    (0.2, 10.0, 9), (3.5, 3.5, 4), (7.0, 0.5, 6), (0.1, 1e4, 2),
    (2.0, 2.0, 1), (0.3, 900.0, 1)])
def test_wavefunction_points_are_numpys_linspace(lo, hi, points):
    code, rows = wavefunction_rows(["--n", "2", "--sigma", "0", "--k", "1",
                                    "--l", "0", "--lo", repr(lo),
                                    "--hi", repr(hi),
                                    "--points", str(points)])
    assert code == 0
    assert [r["lhs"] for r in rows] == \
        [float(x) for x in np.linspace(lo, hi, points)]


def test_wavefunction_equals_the_library_on_numpys_grid():
    # the command samples a list, the library an ndarray: the same floats
    rng = np.random.default_rng(21)
    for case in range(40):
        n, sb, k, l = (int(rng.integers(2, 9)), int(rng.integers(0, 13)),
                       int(rng.integers(1, 41)), int(rng.integers(0, 41)))
        lo, hi = (float(v) for v in rng.uniform(0.05, 60.0, 2))
        points = 1 if case % 8 == 0 else int(rng.integers(2, 13))
        coordinate = ("t", "rho")[case % 2]
        normalized = case % 4 >= 2
        argv = ["--n", str(n), "--sigma", str(sb), "--k", str(k),
                "--l", str(l), "--lo", repr(lo), "--hi", repr(hi),
                "--points", str(points), "--coordinate", coordinate]
        code, rows = wavefunction_rows(
            argv + ["--normalized"] * normalized)
        pts = np.linspace(lo, hi, points)
        s = radial.RadialState(spectral.ModelParams(n, sb), k, l)
        fun = radial.radial_t if coordinate == "t" else radial.radial_rho
        vals = fun(s, pts, normalized=normalized)
        assert [r["lhs"] for r in rows] == [float(x) for x in pts]
        assert [r["rhs"] for r in rows] == [float(v) for v in vals]
        assert code == (0 if np.all(np.isfinite(vals)) else 1)


def test_micz_command(capsys):
    code = run(["micz", "--sigma", "2", "--imax", "5"])
    out = out_of(capsys)
    assert code == 0
    assert "spectrum-exact  pass  lhs=true rhs=true\n" in out
    for j in range(4):
        assert f"operator[r^{j}]   pass  lhs=true rhs=true\n" in out
    # mu = 1: mu^2 + mu = 2
    assert "centrifugal     pass  lhs=2 rhs=2\n" in out
    assert "residual" not in out and "tol" not in out


@pytest.mark.parametrize("check", ["dim-equality", "genfunc", "ktype-dims"])
def test_verify_exact_checks(check, capsys):
    code = run(["verify", check])
    out = out_of(capsys)
    assert code == 0
    assert "result: pass" in out


def test_verify_metric_seeded(capsys):
    code = run(["verify", "metric", "--seed", "7"])
    out = out_of(capsys)
    assert code == 0
    assert "quotient[n=3]" in out
    assert "  seed: 7\n" in out


def test_verify_ostar_small(capsys):
    code = run(["verify", "ostar"])
    out = out_of(capsys)
    assert code == 0
    assert "ostar[n=2]" in out and "ostar[n=3]" in out
    assert "weight-double[n<=6]" in out


def test_verify_micz_rows_are_exact(capsys):
    assert run(["verify", "micz"]) == 0
    out = out_of(capsys)
    for sb in range(7):
        assert f"micz[{sb}]  pass  lhs=6 rhs=6\n" in out
    assert "residual" not in out and "tol" not in out


def test_verify_schur_small(capsys):
    code = run(["verify", "schur"])
    out = out_of(capsys)
    assert code == 0
    for sb in range(10):
        assert f"schur-norm[{sb}]   pass  lhs=1 rhs=1\n" in out
    assert "schur-norm[10]  pass  lhs=1 rhs=1\n" in out
    assert "schur-cross     pass  lhs=55 rhs=55\n" in out
    assert "residual" not in out and "tol" not in out


def test_reports_are_byte_identical(capsys):
    args = ["verify", "metric", "--seed", "11", "--format", "json"]
    run(args)
    first = out_of(capsys)
    run(args)
    second = out_of(capsys)
    assert first == second


def test_timestamp_breaks_determinism_knowingly(capsys):
    args = ["spectrum", "--n", "2", "--sigma", "0", "--timestamp"]
    run(args)
    out = out_of(capsys)
    assert "timestamp:" in out


def test_argument_errors_exit_2(capsys):
    assert run(["nonsense"]) == 2
    out_of(capsys)
    assert run(["spectrum", "--n", "1", "--sigma", "0"]) == 2
    out_of(capsys)
    assert run(["eigensolve", "--n", "2", "--sigma", "0", "--l", "0",
                "--count", "0"]) == 2
    out_of(capsys)
    assert run([]) == 2


def test_json_schema_and_seed(capsys):
    run(["verify", "ostar", "--seed", "3", "--format", "json"])
    payload = json.loads(out_of(capsys))
    assert payload["schema"] == "qkepler-report-1"
    assert payload["seed"] == 3
    assert payload["timestamp"] is None


MODEL = ["--n", "2", "--sigma", "0"]


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--tol", "1"],
    ["verify", "all", "--n", "2", "--samples", "1"],
    ["verify", "casimir", "--n", "2", "--samples", "3"],
    ["verify", "casimir", "--seed", "3"],
    ["verify", "metric", "--seed", "-1"],
    ["verify", "all", "--seed", "-3"],
    ["verify", "metric", "--tol", "1e-9"],
    ["verify", "metric", "--samples", "5"],
    ["verify", "dim-equality", "--n", "2"],
    ["verify", "casimir", "--nmax", "3"],
    ["spectrum", "--n", "2", "--sigma", "0", "--seed", "1"],
    ["residual", "kepler", "--n", "2", "--sigma", "0", "--k", "1",
     "--l", "0", "--seed", "1"],
    ["verify", "dim-equality", "--kmax", "-1"],
    ["verify", "collapse", "--kmax", "0"],
    ["verify", "dims", "--n", "2"],
    ["verify", "casimir", "--nmax", "1"],
    ["verify", "metric", "--n", "2", "--samples", "0"],
    ["verify", "ostar", "--n", "2", "--samples", "0"],
    ["verify", "metric", "--n", "1"],
    ["verify", "ostar", "--n", "1"],
    ["verify", "schur", "--points", "256"],
    ["verify", "schur", "--tol", "1e-6"],
    ["verify", "micz", "--tol", "1e-6"],
    ["verify", "genfunc", "--kmax", "0"],
    # values the library rejects, which the parser now rejects first
    ["spectrum", "--n", "1", "--sigma", "0"],
    ["spectrum", "--n", "2", "--sigma", "-1"],
    ["micz", "--sigma", "-1"],
    ["wavefunction", *MODEL, "--k", "0", "--l", "0"],
    ["residual", "kepler", *MODEL, "--k", "1", "--l", "-1"],
    ["eigensolve", *MODEL, "--l", "0", "--count", "0"],
    ["eigensolve", *MODEL, "--l", "0", "--count", "6"],
    # eigensolve reads no finite-difference flag, whatever its value
    ["eigensolve", *MODEL, "--l", "0", "--grid", "4000"],
    *(["eigensolve", *MODEL, "--l", "0", "--tmax", v]
      for v in ("72", "0", "-1", "nan", "inf")),
    *(["wavefunction", *MODEL, "--k", "1", "--l", "0", "--lo", v]
      for v in ("0", "nan")),
    ["wavefunction", *MODEL, "--k", "1", "--l", "0", "--hi", "0"],
    # residual and eigensolve hold the gate's bounds: no --tol, whatever
    # its value
    *(["residual", "kepler", *MODEL, "--k", "1", "--l", "0", "--tol", v]
      for v in ("0", "-1", "nan", "inf", "1e-8")),
    ["residual", "oscillator", *MODEL, "--k", "1", "--l", "0", "--tol",
     "1e-6"],
    ["eigensolve", *MODEL, "--l", "0", "--tol", "0"],
    ["eigensolve", *MODEL, "--l", "0", "--tol", "1e-10"],
    ["micz", "--sigma", "0", "--tol", "1e-6"],
    ["verify", "twist", "--tol", "-1"],
], ids=" ".join)
def test_unread_flags_and_vacuous_sizes_exit_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def swap_ktype_weight(monkeypatch):
    """Swap the last two entries of each K-type weight: not dominant."""
    original = spectral.ktype_weight

    def swapped(p, I):
        *head, a, b = original(p, I).entries
        return HighestWeight([*head, b, a])
    monkeypatch.setattr(spectral, "ktype_weight", swapped)


def raise_in(module, name):
    def install(monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError(f"{name} is broken")
        monkeypatch.setattr(module, name, broken)
    return install


def test_fault_inside_a_check_is_a_failed_row(monkeypatch, capsys):
    # a program fault, not an argument error: the check fails, exit 1
    swap_ktype_weight(monkeypatch)
    assert run(["verify", "all"]) == 1
    out = out_of(capsys)
    failed = [line.split()[0] for line in out.splitlines()
              if "  FAIL" in line]
    assert failed == ["ktype-dims"]
    assert "not dominant" in out


@pytest.mark.parametrize("fault, argv, name, lhs", [
    (swap_ktype_weight, ["ktype", "--n", "2", "--sigma", "1", "--imax", "1"],
     "ktype", "ValueError: weight ("),
    (raise_in(spectral, "energy"), ["spectrum", *MODEL],
     "spectrum", "RuntimeError: energy is broken"),
    (raise_in(radial, "kepler_ode"),
     ["residual", "kepler", *MODEL, "--k", "1", "--l", "0"],
     "residual kepler", "RuntimeError: kepler_ode is broken"),
    (raise_in(radial, "laguerre_certified"),
     ["eigensolve", *MODEL, "--l", "0"],
     "eigensolve", "RuntimeError: laguerre_certified is broken"),
], ids=["ktype", "spectrum", "residual-kepler", "eigensolve"])
def test_fault_inside_a_command_is_a_failed_row(fault, argv, name, lhs,
                                                monkeypatch, capsys):
    # valid arguments, so a raise is a program fault: one FAIL row, exit 1
    fault(monkeypatch)
    assert run([*argv, "--format", "json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    [failed] = payload["results"]
    assert failed["name"] == payload["command"] == name
    assert failed["passed"] is False
    assert failed["lhs"].startswith(lhs)
    assert "Traceback (most recent call last)" in captured.err


def json_report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run([*argv, "--format", "json"])
    return json.loads(buf.getvalue())


def test_eigensolve_tolerance_is_the_gates(monkeypatch):
    # one bound for the route: the command's rows show it, and the check
    # certifies to it
    assert checks.EIGENSOLVE_TOL == 1e-10
    report = json_report(["eigensolve", *MODEL, "--l", "0"])
    assert [r["tolerance"] for r in report["results"]] \
        == [checks.EIGENSOLVE_TOL] * 3
    # at a bound of 0 no level above the ground state can be certified
    monkeypatch.setattr(checks, "EIGENSOLVE_TOL", 0.0)
    report = json_report(["eigensolve", *MODEL, "--l", "0"])
    assert [r["passed"] for r in report["results"]] == [True, False, False]
    report = json_report(["verify", "eigensolve"])
    assert [(r["lhs"], r["rhs"]) for r in report["results"]] \
        == [(12, 36), (12, 36)]


STATE = [*MODEL, "--k", "1", "--l", "0"]


@pytest.mark.parametrize("argv, keys", [
    (["spectrum", *MODEL], {"n", "sigma", "imax"}),
    (["degeneracy", *MODEL], {"n", "sigma", "imax"}),
    (["ktype", *MODEL], {"n", "sigma", "imax"}),
    (["wavefunction", *STATE], {"n", "sigma", "k", "l", "coordinate", "lo",
                                "hi", "points", "normalized"}),
    (["residual", "kepler", *STATE], {"n", "sigma", "k", "l"}),
    (["residual", "oscillator", *STATE], {"n", "sigma", "k", "l"}),
    (["eigensolve", *MODEL, "--l", "0", "--count", "1"],
     {"n", "sigma", "l", "count"}),
    (["micz", "--sigma", "1", "--imax", "2"], {"sigma", "imax"}),
    (["verify", "metric", "--seed", "5"], {"check"}),
    (["verify", "collapse"], {"check"}),
], ids=["spectrum", "degeneracy", "ktype", "wavefunction", "residual-kepler",
        "residual-oscillator", "eigensolve", "micz", "verify-metric",
        "verify-collapse"])
def test_report_parameters_are_the_flags(argv, keys):
    # the positional `which` is not a parameter
    assert set(json_report(argv)["parameters"]) == keys


def test_verify_takes_only_the_seed():
    # a size or tolerance flag would let one run change what the gate checks
    [verbs] = [a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    options = {s for a in verbs.choices["verify"]._actions
               for s in a.option_strings}
    assert options == {"-h", "--help", "--seed", "--format", "--timestamp"}


def test_verify_help_reads_the_registry(monkeypatch, capsys):
    # the parser reads the check names and the seeded checks from
    # qkepler.checks only when it shows them
    monkeypatch.setenv("COLUMNS", "400")
    assert run(["verify", "--help"]) == 0
    out = capsys.readouterr().out
    assert ", ".join([*checks.REGISTRY, "all"]) in out
    assert (f"seed for the randomized checks, "
            f"{' and '.join(sorted(checks.SEEDED))} "
            f"(default {checks.SEED})") in out


def test_only_the_seeded_checks_take_an_argument():
    takes = {name: list(inspect.signature(check).parameters)
             for name, check in checks.REGISTRY.items()}
    assert takes == {name: ["seed"] if name in checks.SEEDED else []
                     for name in checks.REGISTRY}


@pytest.fixture(scope="module")
def gate_and_check_reports():
    return (json_report(["verify", "all"]),
            {name: json_report(["verify", name]) for name in checks.REGISTRY})


@pytest.fixture(scope="module")
def gate_and_check_rows(gate_and_check_reports):
    gate, alone = gate_and_check_reports
    return (gate["results"],
            {name: report["results"] for name, report in alone.items()})


@pytest.mark.parametrize("name", list(checks.REGISTRY))
def test_verify_report_has_no_settings(name, gate_and_check_reports):
    report = gate_and_check_reports[1][name]
    assert set(report["parameters"]) == {"check"}
    assert report["seed"] == (checks.SEED if name in checks.SEEDED else None)


@pytest.mark.parametrize("name", list(checks.REGISTRY))
def test_check_is_defined_once(name, gate_and_check_rows):
    gate, alone = gate_and_check_rows
    names = list(checks.REGISTRY)
    start = sum(len(alone[m]) for m in names[:names.index(name)])
    assert alone[name] == gate[start:start + len(alone[name])]
    assert sum(map(len, alone.values())) == len(gate)


GATE_ROWS = os.path.join(os.path.dirname(__file__), "verify_all_rows.json")


def test_gate_rows_match_the_golden(gate_and_check_reports):
    # every row of `verify all` at seed 0 but its residual, whose last
    # digits depend on libm and LAPACK: a changed count, row or bound
    # shows here
    with open(GATE_ROWS, encoding="utf-8") as fh:
        golden = json.load(fh)
    gate = gate_and_check_reports[0]
    assert gate["seed"] == 0
    assert [[r[k] for k in ("name", "lhs", "rhs", "tolerance", "passed")]
            for r in gate["results"]] == golden


def micz_at_wrong_charge(monkeypatch):
    """Compare with the five-dimensional operator at charge sigma_bar + 1."""
    original = spectral._micz_radial
    monkeypatch.setattr(spectral, "_micz_radial",
                        lambda phi, sb: original(phi, sb + 1))


def character_without_lowest_weight(monkeypatch):
    original = rep.sp1_character

    def chi(sb):
        terms = dict(original(sb).terms)
        del terms[-sb]
        return Laurent(terms)
    monkeypatch.setattr(rep, "sp1_character", chi)


def galerkin_off_channel(monkeypatch):
    """Certify on the radial channel lambda + 1/2 in place of lambda."""
    original = radial.laguerre_certified
    monkeypatch.setattr(radial, "laguerre_certified", lambda two_lam, *rest:
                        original(two_lam + 1, *rest))


def galerkin_pencil_perturbed(monkeypatch):
    """The diagonal of J' one more at j = 5."""
    original = radial._pencil

    def pencil(two_lam, size):
        rows = original(two_lam, size)
        diag, off2 = rows[4]
        return rows[:4] + [(diag + 1, off2)] + rows[5:]
    monkeypatch.setattr(radial, "_pencil", pencil)


def galerkin_basis_tiny(monkeypatch):
    """As many basis functions as levels."""
    monkeypatch.setattr(radial, "_laguerre_size", lambda two_lam, count: count)


@pytest.mark.parametrize("control, failed", [
    # off channel, the ground-state identity fails too
    (galerkin_off_channel, ["E[0]", "E[1]", "E[2]"]),
    (galerkin_pencil_perturbed, ["E[1]", "E[2]"]),
    (galerkin_basis_tiny, ["E[1]", "E[2]"]),
], ids=["channel", "pencil", "basis"])
def test_eigensolve_command_fails_the_galerkin_controls(control, failed,
                                                        monkeypatch, capsys):
    # failed rows (exit 1), not an argument error or a fault
    control(monkeypatch)
    assert run(["eigensolve", *MODEL, "--l", "0", "--count", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line.split()[0] for line in captured.out.splitlines()
            if "  FAIL  " in line] == failed


def rho_power_three_halves(monkeypatch):
    """The rho power 2 ell + 3/2 in place of 2 ell + 5/2."""
    original = radial.exponents

    def exponents(s, coordinate):
        power, scale, rate = original(s, coordinate)
        return (power - 1 if coordinate == "rho" else power), scale, rate
    monkeypatch.setattr(radial, "exponents", exponents)


def rho_and_oscillator_powers_plus_one(monkeypatch):
    """One more power of x in both the rho and the oscillator tables: the
    twist still composes, and the rho profile is off by a factor rho."""
    original = radial.exponents

    def exponents(s, coordinate):
        power, scale, rate = original(s, coordinate)
        return (power if coordinate == "t" else power + 1), scale, rate
    monkeypatch.setattr(radial, "exponents", exponents)


def t_exponents_shifted(shift):
    """A control that passes the t-exponents (power, scale, rate) through
    ``shift``; the rho and oscillator exponents stay as they are."""
    def control(monkeypatch):
        original = radial.exponents
        monkeypatch.setattr(radial, "exponents", lambda s, coordinate: (
            shift(*original(s, coordinate)) if coordinate == "t"
            else original(s, coordinate)))
    return control


def norm_off_by_a_billionth(monkeypatch):
    """Every closed-form t-norm scaled by 1 + 1e-9."""
    original = radial.radial_norm2_t
    monkeypatch.setattr(radial, "radial_norm2_t", lambda s: (
        original(s) * (1 + Fraction(1, 10 ** 9))))


def genfunc_one_short(monkeypatch):
    """Every route stops at k = 11: twelve coefficients that agree."""
    original = spectral.genfunc_check
    monkeypatch.setattr(spectral, "genfunc_check", lambda n, K: (
        spectral.GenfuncCheck(*(route[:-1] for route in original(n, K)))))


MICZ_ROWS = [f"micz[{sb}]" for sb in range(7)]
# a t-table mutant fails the Kepler equation as well as the Gram identities
T_ROWS = ["kepler-ode[n=2]", "kepler-ode[n=3]", "orthogonality[n=2]"]


@pytest.mark.parametrize("control, failed", [
    (micz_at_wrong_charge, MICZ_ROWS),
    (lambda mp: mp.setattr(spectral, "_MICZ_SHIFT", Fraction(25, 4)),
     MICZ_ROWS),
    # chi_1 without z^-1 is z, whose class integral is -1/2: a fault row
    (character_without_lowest_weight, ["schur"]),
    # the density cut to its constant term gives |chi_s|^2 = s + 1
    (lambda mp: mp.setattr(rep, "_WEYL_DENSITY", {0: 2}),
     [f"schur-norm[{sb}]" for sb in range(1, 11)] + ["schur-cross"]),
    # the Laguerre route converges, but to the neighbouring channel
    (galerkin_off_channel, ["eigensolve[n=2]", "eigensolve[n=3]"]),
    # the Ritz levels move off the exact ones, past the enclosure
    (galerkin_pencil_perturbed, ["eigensolve[n=2]", "eigensolve[n=3]"]),
    # the Ritz levels are still upper bounds, but far from converged
    (galerkin_basis_tiny, ["eigensolve[n=2]", "eigensolve[n=3]"]),
    # the twisted power is then 2 ell - 1, not the oscillator's 2 ell
    (rho_power_three_halves, ["twist[n=2]", "twist[n=3]"]),
    # the oscillator equation reads its channel from the oscillator table
    (rho_and_oscillator_powers_plus_one,
     ["oscillator-ode[n=2]", "oscillator-ode[n=3]"]),
    # every diagonal Gram identity fails, exactly
    (norm_off_by_a_billionth, ["orthogonality[n=2]"]),
    # t^(ell + 1/4) is no polynomial times t^ell: no identity holds, and
    # the Kepler equation reads its channel from the t table
    (t_exponents_shifted(lambda power, scale, rate: (
        power + Fraction(1, 4), scale, rate)), T_ROWS),
    # each pair then integrates against the wrong exponential
    (t_exponents_shifted(lambda power, scale, rate: (
        power, scale, rate * Fraction(101, 100))), T_ROWS),
    # L^a_0 = 1 reads no scale: only the nine k = 1 norms still hold
    (t_exponents_shifted(lambda power, scale, rate: (
        power, scale * Fraction(101, 100), rate)), T_ROWS),
    # the row counts k = 0..12, so a missing coefficient is a fault row
    (genfunc_one_short, ["genfunc"]),
], ids=["micz-wrong-charge", "micz-shift", "schur-lowest-weight",
        "schur-density", "eigensolve-channel", "eigensolve-pencil",
        "eigensolve-basis", "twist-rho-power",
        "rho-oscillator-power", "orthogonality-norm", "orthogonality-t-power",
        "orthogonality-t-rate", "orthogonality-t-scale", "genfunc-one-short"])
def test_exact_checks_fail_their_negative_controls(control, failed,
                                                   monkeypatch, capsys):
    control(monkeypatch)
    assert run(["verify", "all"]) == 1
    out = out_of(capsys)
    assert [line.split()[0] for line in out.splitlines()
            if "  FAIL" in line] == failed


def energy_off_by_a_millionth(monkeypatch):
    """Every Kepler energy the check reads scaled by 1 + 1e-6."""
    original = spectral.energy
    monkeypatch.setattr(spectral, "energy", lambda p, I: (
        original(p, I) * (1 + Fraction(1, 10 ** 6))))


def readback_off_in_one_channel(monkeypatch):
    """2x H~P off by P on the oscillator channel 2 ell = 2, m = 0, which
    two states share at each n, (sbar, l) = (0, 1), (2, 0): the identity
    no longer reads their level back."""
    original = radial._oscillator_reduced

    def reduced(x, n, L, m):
        P, HP = original(x, n, L, m)
        return P, HP + P if (L, m) == (2, 0) else HP
    monkeypatch.setattr(radial, "_oscillator_reduced", reduced)


@pytest.mark.parametrize("control, failed", [
    # the identity fails at every point for every state
    (energy_off_by_a_millionth,
     {f"kepler-ode[n={n}]": "lhs=0 rhs=80" for n in (2, 3)}),
    # a channel is checked once but counts every state in it
    (readback_off_in_one_channel,
     {f"oscillator-ode[n={n}]": "lhs=78 rhs=80" for n in (2, 3)}),
], ids=["residual-energy", "readback-channel"])
def test_residual_checks_fail_their_negative_controls(control, failed,
                                                      monkeypatch, capsys):
    control(monkeypatch)
    assert run(["verify", "residuals"]) == 1
    rows = {line.split()[0]: line for line in out_of(capsys).splitlines()
            if "  FAIL" in line}
    assert list(rows) == list(failed)
    for name, shown in failed.items():
        assert shown in rows[name]


QMUL = qlinalg.qmul


def qmul_not_associative(a, b):
    """The z-component cross terms flipped: (i j) k = -1 but i (j k) = +1."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    p = QMUL(a, b)
    p[..., 3] += 2.0 * (a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1])
    return p


@pytest.mark.parametrize("product", [
    qmul_not_associative,
    lambda a, b: np.asarray(a, dtype=float) * np.asarray(b, dtype=float),
], ids=["qmul-not-associative", "qmul-componentwise"])
def test_metric_rows_read_the_quaternion_product(product, monkeypatch,
                                                 capsys):
    # geom imports qmul by name, so both bindings are replaced
    monkeypatch.setattr(qlinalg, "qmul", product)
    monkeypatch.setattr(geom, "qmul", product)
    assert run(["verify", "all"]) == 1
    out = out_of(capsys)
    assert [line.split()[0] for line in out.splitlines()
            if "  FAIL" in line] == [f"metric[n={n}]" for n in (2, 3, 4)]


def test_gate_survives_optimize_flag():
    # python -O strips asserts: every guard of the gate is an explicit
    # raise, so the report is the same bytes
    env = dict(os.environ, PYTHONPATH=SRC)
    outs = [subprocess.run(
        [sys.executable, *flags, "-m", "qkepler.cli", "verify", "all",
         "--format", "json"], env=env, capture_output=True, check=True).stdout
        for flags in ([], ["-O"])]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["passed"] is True


def test_genfunc_row_counts_the_agreeing_coefficients(monkeypatch, capsys):
    # the binomial route off by one at k = 5 only: 12 of 13 agree
    original = spectral.oscillator_level_dim
    monkeypatch.setattr(spectral, "oscillator_level_dim",
                        lambda n, k: original(n, k) + (k == 5))
    assert run(["verify", "genfunc"]) == 1
    out = out_of(capsys)
    for n in (2, 3, 4):
        assert f"genfunc[n={n}]  FAIL  lhs=12 rhs=13\n" in out


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_commands():
    """Each `qkepler ...` line of the README's fenced code blocks."""
    commands, fenced = [], False
    with open(README, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("```"):
                fenced = not fenced
            elif fenced and line.startswith("qkepler "):
                commands.append(shlex.split(line)[1:])
    return commands


def main_in_subprocess(argv):
    """Exit status and stdout of ``python -m qkepler.cli *argv``.

    stdout is a pipe and PYTHONUNBUFFERED is unset, so the report sits in
    a buffer until ``main`` flushes it before its hard exit."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "qkepler.cli", *argv],
                          env=env, stdout=subprocess.PIPE)
    return proc.returncode, proc.stdout.decode()


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_run(argv, capsys):
    # in process, and in a process that ends in os._exit: the same bytes
    assert run(argv) == 0
    assert main_in_subprocess(argv) == (0, out_of(capsys))


# the text form, `qkepler verify all`, is a README command
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gate_prints_the_same_through_main(fmt, capsys):
    argv = ["verify", "all", "--seed", "0", "--format", fmt]
    code = run(argv)
    assert main_in_subprocess(argv) == (code, out_of(capsys))


ATEXIT_PROBE = """
import atexit, sys
atexit.register(print, "atexit ran", file=sys.stderr)
from qkepler.cli import main
main()
"""


@pytest.mark.parametrize("argv", [
    ["spectrum", *MODEL],
    # a sample past the double range fails its row
    ["wavefunction", *MODEL, "--k", "1", "--l", "200", "--hi", "1000"],
    ["spectrum", "--n", "1", "--sigma", "0"],
], ids=["pass", "fail", "argument-error"])
def test_main_ends_the_process_without_teardown(argv, capsys):
    # run()'s status, and the interpreter's exit handlers do not run
    code = run(argv)
    capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", ATEXIT_PROBE, *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == code
    assert "atexit ran" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered, code", [("", 120), ("1", 1)],
                         ids=["flush", "write"])
def test_report_that_cannot_be_written_is_no_pass(unbuffered, code):
    # a flush or write that raises takes the interpreter's own path: a
    # traceback and its status (120: stdout failed to flush at exit)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "qkepler.cli", "spectrum", *MODEL],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == code
    assert "No space left on device" in proc.stderr


def parsed(parser, argv):
    """Exit status, stdout and stderr of ``parser.parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


COMMANDS = ["spectrum", "degeneracy", "ktype", "wavefunction", "residual",
            "eigensolve", "micz", "verify"]


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([name, "--help"] for name in COMMANDS),
    ["spectrum", "--n", "1", "--sigma", "0"],
    ["degeneracy", *MODEL, "--imax", "-1"],
    ["ktype", "--n", "2"],
    ["wavefunction", *MODEL, "--k", "1", "--l", "0", "--lo", "nan"],
    ["residual", "bogus", *MODEL, "--k", "1", "--l", "0"],
    ["eigensolve", *MODEL, "--l", "0", "--count", "6"],
    ["micz", "--sigma", "-1"],
    ["verify", "nope"],
], ids=" ".join)
def test_parser_of_one_command_reads_as_the_full_parser(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert parsed(_build_parser(argv), argv) == parsed(_build_parser(), argv)


def test_parser_adds_only_the_named_commands_arguments():
    [verbs] = [a for a in _build_parser(["spectrum"])._actions
               if isinstance(a, argparse._SubParsersAction)]
    assert list(verbs.choices) == COMMANDS
    populated = {name for name, cmd in verbs.choices.items()
                 if len(cmd._actions) > 1}  # more than -h
    assert populated == {"spectrum"}
