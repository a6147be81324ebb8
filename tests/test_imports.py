"""Cold start: each command loads only the layers it uses.

Every case runs in a fresh interpreter, since this one has long since
imported numpy and scipy.  Only `qkepler eigensolve` loads scipy.
"""

import json
import os
import subprocess
import sys

import pytest

import qkepler

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qkepler.__file__)))

PROBE = """
import contextlib, io, json, sys
from qkepler.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps([code, sorted({m.split(".")[0] for m in sys.modules})]))
"""


def fresh_run(argv):
    """Exit code and top-level modules loaded after ``cli.run(argv)``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


@pytest.mark.parametrize("argv, absent", [
    (["spectrum", "--n", "3", "--sigma", "2"], {"numpy", "scipy"}),
    (["degeneracy", "--n", "8", "--sigma", "12", "--imax", "20"],
     {"numpy", "scipy"}),
    (["ktype", "--n", "8", "--sigma", "12", "--imax", "20"],
     {"numpy", "scipy"}),
    (["wavefunction", "--n", "2", "--sigma", "1", "--k", "3", "--l", "2",
      "--normalized"], {"scipy"}),
    (["micz", "--sigma", "2"], {"numpy", "scipy"}),
    (["verify", "micz"], {"numpy", "scipy"}),
    (["verify", "schur"], {"numpy", "scipy"}),
    # the gate's eigenvalues come from the numpy-only Laguerre route
    (["verify", "eigensolve"], {"scipy"}),
    (["verify", "all"], {"scipy"}),
], ids=["spectrum", "degeneracy", "ktype", "wavefunction", "micz",
        "verify-micz", "verify-schur", "verify-eigensolve", "verify-all"])
def test_commands_load_only_what_they_use(argv, absent):
    code, modules = fresh_run(argv)
    assert code == 0
    assert not modules & absent


@pytest.mark.parametrize("argv", [
    ["residual", "kepler", "--n", "2", "--sigma", "0", "--k", "0", "--l", "0"],
    ["eigensolve", "--n", "2", "--sigma", "0", "--l", "0", "--count", "6"],
], ids=["residual", "eigensolve"])
def test_argument_errors_load_no_numpy(argv):
    # the parser rejects the value before the command imports anything
    code, modules = fresh_run(argv)
    assert code == 2
    assert not modules & {"numpy", "scipy"}


def test_every_exported_name_resolves():
    for name in qkepler.__all__:
        assert getattr(qkepler, name) is not None
    assert set(qkepler.__all__) <= set(dir(qkepler))
    assert qkepler.radial.RadialState is qkepler.RadialState
    with pytest.raises(AttributeError):
        qkepler.no_such_name
