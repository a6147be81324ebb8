import contextlib
import io
import json
import math

import numpy as np
import pytest

from qkepler import checks
from qkepler.cli import run


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
    assert run(["residual", "kepler", "--n", "2", "--sigma", "1",
                "--k", "2", "--l", "1"]) == 0
    out_of(capsys)
    assert run(["residual", "oscillator", "--n", "3", "--sigma", "0",
                "--k", "3", "--l", "0"]) == 0
    out = out_of(capsys)
    assert "eigenvalue-readback" in out


def test_eigensolve_command(capsys):
    code = run(["eigensolve", "--n", "2", "--sigma", "0", "--l", "0",
                "--grid", "1500", "--count", "2"])
    out = out_of(capsys)
    assert code == 0
    assert "E[0]" in out and "E[1]" in out


def test_eigensolve_failing_tolerance(capsys):
    code = run(["eigensolve", "--n", "2", "--sigma", "0", "--l", "0",
                "--grid", "1500", "--count", "1", "--tol", "1e-30"])
    out = out_of(capsys)
    assert code == 1
    assert "FAIL" in out


def test_eigensolve_under_resolution_is_a_failed_row(capsys):
    # a valid but too small domain fails a row (exit 1), not the arguments
    code = run(["eigensolve", "--n", "2", "--sigma", "0", "--l", "0",
                "--tmax", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert ("resolution  FAIL  lhs=t_max=10 too small: eigenfunction mass "
            "at the boundary") in captured.out
    assert "result: FAIL" in captured.out


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


def test_micz_command(capsys):
    code = run(["micz", "--sigma", "2", "--imax", "5"])
    out = out_of(capsys)
    assert code == 0
    assert "spectrum-exact" in out
    assert "centrifugal-fit" in out


@pytest.mark.parametrize("check", ["dim-equality", "genfunc", "ktype-dims"])
def test_verify_exact_checks(check, capsys):
    code = run(["verify", check, "--n", "2"])
    out = out_of(capsys)
    assert code == 0
    assert "result: pass" in out


def test_verify_casimir_restricted(capsys):
    code = run(["verify", "casimir", "--nmax", "3", "--lmax", "4",
                "--smax", "4"])
    out_of(capsys)
    assert code == 0


def test_verify_metric_seeded(capsys):
    code = run(["verify", "metric", "--n", "3", "--samples", "100",
                "--seed", "7"])
    out = out_of(capsys)
    assert code == 0
    assert "quotient[n=3]" in out


def test_verify_ostar_small(capsys):
    code = run(["verify", "ostar", "--n", "2", "--samples", "10"])
    out = out_of(capsys)
    assert code == 0
    assert "weight-double[n<=6]" in out


def test_verify_schur_small(capsys):
    code = run(["verify", "schur", "--smax", "4"])
    out = out_of(capsys)
    assert code == 0
    assert "schur-cross" in out


def test_verify_schur_without_pairs_has_no_cross_row(capsys):
    code = run(["verify", "schur", "--smax", "0"])
    out = out_of(capsys)
    assert code == 0
    assert "schur-norm[0]" in out
    assert "schur-cross" not in out


def test_reports_are_byte_identical(capsys):
    args = ["verify", "metric", "--n", "2", "--samples", "50",
            "--seed", "11", "--format", "json"]
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
                "--grid", "10"]) == 2
    out_of(capsys)
    assert run([]) == 2


def test_json_schema_and_seed(capsys):
    run(["verify", "ostar", "--n", "2", "--samples", "5", "--seed", "3",
         "--format", "json"])
    payload = json.loads(out_of(capsys))
    assert payload["schema"] == "qkepler-report-1"
    assert payload["seed"] == 3
    assert payload["timestamp"] is None


@pytest.mark.parametrize("argv", [
    ["verify", "all", "--tol", "1"],
    ["verify", "all", "--n", "2", "--samples", "1"],
    ["verify", "casimir", "--n", "2", "--samples", "3"],
    ["verify", "casimir", "--seed", "3"],
    ["spectrum", "--n", "2", "--sigma", "0", "--seed", "1"],
    ["residual", "kepler", "--n", "2", "--sigma", "0", "--k", "1",
     "--l", "0", "--seed", "1"],
    ["verify", "dim-equality", "--kmax", "-1"],
    ["verify", "collapse", "--kmax", "0"],
    ["verify", "dims", "--n", "2"],
    ["verify", "casimir", "--nmax", "1"],
    ["verify", "metric", "--n", "2", "--samples", "0"],
    ["verify", "ostar", "--n", "2", "--samples", "0"],
], ids=" ".join)
def test_unread_flags_and_vacuous_sizes_exit_2(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def json_rows(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run([*argv, "--format", "json"])
    return json.loads(buf.getvalue())["results"]


@pytest.fixture(scope="module")
def gate_and_check_rows():
    return (json_rows(["verify", "all"]),
            {name: json_rows(["verify", name]) for name in checks.REGISTRY})


@pytest.mark.parametrize("name", list(checks.REGISTRY))
def test_check_is_defined_once(name, gate_and_check_rows):
    gate, alone = gate_and_check_rows
    names = list(checks.REGISTRY)
    start = sum(len(alone[m]) for m in names[:names.index(name)])
    assert alone[name] == gate[start:start + len(alone[name])]
    assert sum(map(len, alone.values())) == len(gate)
