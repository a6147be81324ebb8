"""Cold start: each command loads only the layers it uses.

Every case runs in a fresh interpreter, since this one has long since
imported numpy and scipy.  No command loads numpy or scipy, nor
``dataclasses`` or ``inspect`` (numpy imports ``inspect`` itself): every
row of the gate is exact, the geometry rows too, and every command of
the README prints the same with numpy blocked.  Only `verify` and the
full parser, which lists the checks, load ``qkepler.checks``;
`eigensolve` reads its bound from ``qkepler.radial``.  ``qkepler.rep``
loads only where weights and dimensions are built, and
``qkepler.laurent`` only where Laurent polynomials are.
"""

import contextlib
import importlib
import io
import json
import os
import pkgutil
import shlex
import subprocess
import sys

import pytest

import qkepler
from qkepler.cli import run

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qkepler.__file__)))

PROBE = """
import contextlib, io, json, sys
from qkepler.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


EXACT_CHECKS = ("collapse", "dim-equality", "genfunc", "dims", "ktype-dims",
                "casimir", "residuals", "twist", "orthogonality")

# what a command that needs no numpy leaves unloaded
NO_NUMPY = {"numpy", "scipy", "dataclasses", "inspect"}

# what a table command leaves unloaded: it runs no check and builds no
# Laurent polynomial
TABLE = NO_NUMPY | {"qkepler.checks", "qkepler.laurent"}

# what a command that builds no weight or dimension leaves unloaded
NO_WEIGHTS = TABLE | {"qkepler.rep"}


def fresh_run(argv):
    """Exit code and modules loaded after ``cli.run(argv)``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


@pytest.mark.parametrize("argv, absent", [
    (["spectrum", "--n", "3", "--sigma", "2"], NO_WEIGHTS),
    (["degeneracy", "--n", "8", "--sigma", "12", "--imax", "20"], TABLE),
    (["ktype", "--n", "8", "--sigma", "12", "--imax", "20"], TABLE),
    # profiles are sampled on Python floats, the equations on ints
    (["wavefunction", "--n", "2", "--sigma", "1", "--k", "3", "--l", "2",
      "--normalized"], NO_WEIGHTS),
    (["wavefunction", "--n", "2", "--sigma", "1", "--k", "3", "--l", "2"],
     NO_WEIGHTS),
    (["wavefunction", "--n", "3", "--sigma", "0", "--k", "4", "--l", "1",
      "--coordinate", "rho"], NO_WEIGHTS),
    (["residual", "kepler", "--n", "2", "--sigma", "1", "--k", "3", "--l",
      "1"], NO_WEIGHTS),
    (["residual", "oscillator", "--n", "2", "--sigma", "0", "--k", "2",
      "--l", "0"], NO_WEIGHTS),
    # the command and the gate share the Laguerre route, counted in ints,
    # and its bound, which radial owns
    (["eigensolve", "--n", "2", "--sigma", "0", "--l", "0"], NO_WEIGHTS),
    (["eigensolve", "--n", "2", "--sigma", "0", "--l", "200", "--count",
      "5"], NO_WEIGHTS),
    # Laurent polynomials, but no weight
    (["micz", "--sigma", "2"], NO_NUMPY | {"qkepler.checks", "qkepler.rep"}),
    (["verify", "micz"], NO_NUMPY),
    (["verify", "schur"], NO_NUMPY),
    # the exact checks, counted in integers and Fractions
    *((["verify", check], NO_NUMPY) for check in EXACT_CHECKS),
    (["verify", "eigensolve"], NO_NUMPY),
    # the geometry rows read the integer product table, and no radial state
    (["verify", "metric"], NO_NUMPY | {"qkepler.radial"}),
    (["verify", "ostar"], NO_NUMPY | {"qkepler.radial"}),
    (["verify", "all"], NO_NUMPY),
], ids=["spectrum", "degeneracy", "ktype", "wavefunction",
        "wavefunction-t", "wavefunction-rho", "residual-kepler",
        "residual-oscillator", "eigensolve", "eigensolve-l200", "micz",
        "verify-micz", "verify-schur",
        *(f"verify-{check}" for check in EXACT_CHECKS),
        "verify-eigensolve", "verify-metric", "verify-ostar", "verify-all"])
def test_commands_load_only_what_they_use(argv, absent):
    code, modules = fresh_run(argv)
    assert code == 0
    assert not modules & absent


@pytest.mark.parametrize("argv", [
    ["residual", "kepler", "--n", "2", "--sigma", "0", "--k", "0", "--l", "0"],
    ["eigensolve", "--n", "2", "--sigma", "0", "--l", "0", "--count", "0"],
], ids=["residual", "eigensolve"])
def test_argument_errors_load_no_numpy(argv):
    # the parser rejects the value before the command imports anything
    code, modules = fresh_run(argv)
    assert code == 2
    assert not modules & {"numpy", "scipy"}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), ([], 2), (["bogus"], 2),
], ids=["help", "no-command", "unknown-command"])
def test_full_parser_loads_no_numpy(argv, code):
    # with no command named, every command's arguments are built, and
    # those of `verify` list the checks, read from qkepler.checks
    exit_code, modules = fresh_run(argv)
    assert exit_code == code
    assert not modules & NO_NUMPY


README_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises
from qkepler.cli import run
reports = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        reports.append([run(argv), out.getvalue()])
print(json.dumps(reports))
"""


def readme_commands():
    """The argv of each ``qkepler`` line in the README's code blocks."""
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as fh:
        blocks = fh.read().split("```")[1::2]
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("qkepler ")]


def test_readme_commands_print_the_same_without_numpy():
    # every README command in one fresh interpreter with numpy blocked,
    # against the same argv run here
    commands = readme_commands()
    assert len(commands) >= 11
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", README_PROBE, json.dumps(commands)], env=env,
        capture_output=True, text=True, check=True)
    expected = []
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            expected.append([run(argv), out.getvalue()])
    assert json.loads(proc.stdout) == expected


def loaded_after(code):
    """Top-level modules loaded after ``code`` in a fresh interpreter,
    which writes its own output to stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_import_qkepler_loads_no_submodule_and_no_numpy():
    modules = loaded_after("import sys, qkepler")
    assert not {m for m in modules if m.startswith(("qkepler.", "numpy"))}


@pytest.mark.parametrize("module", ["qlinalg", "geom"])
def test_import_of_the_array_layers_loads_no_numpy(module):
    # numpy is imported inside the array routes that use it
    modules = loaded_after(f"import sys, qkepler.{module}")
    assert f"qkepler.{module}" in modules
    assert not modules & NO_NUMPY


def test_import_radial_loads_no_numpy():
    # numpy is imported inside the array routes that use it
    modules = loaded_after("import sys, qkepler.radial")
    assert "qkepler.radial" in modules
    assert not modules & NO_WEIGHTS


def test_import_cli_loads_no_dataclasses_and_no_inspect():
    modules = loaded_after("import sys, qkepler.cli")
    assert "qkepler.cli" in modules
    assert not modules & NO_WEIGHTS


@pytest.mark.parametrize("fmt, absent", [
    ("text", {"csv", "json"}), ("csv", {"json"}), ("json", {"csv"})])
def test_report_formats_load_only_their_own_module(fmt, absent):
    modules = loaded_after(
        "import sys\nfrom qkepler.cli import run\n"
        "sys.stdout, out = sys.stderr, sys.stdout\n"
        f"run(['spectrum', '--n', '2', '--sigma', '0', '--format', '{fmt}'])\n"
        "sys.stdout = out")
    assert not modules & absent


def test_every_submodule_name_resolves():
    # each name a submodule lists in __all__ exists
    for info in pkgutil.iter_modules(qkepler.__path__):
        module = importlib.import_module(f"qkepler.{info.name}")
        for name in module.__all__:
            assert hasattr(module, name), f"qkepler.{info.name}.{name}"
