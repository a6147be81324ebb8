"""Command-line front end.

Only the parser exits 2: on a value out of range (``--n`` below 2, a
negative ``--sigma``, ``--l`` or ``--seed``, ``--k`` or ``--count``
below 1, a ``--lo`` or ``--hi`` not finite and positive), a size that
would leave a table empty, or ``--seed`` on a `verify` check that draws
no random samples.
`verify` has no other setting: each check sweeps the gate's ranges and
holds its own bounds.  A command exits 1 when a row fails: an identity
that does not hold, a level that is not certified, a sample past the
double range, or a fault.  A command, or one check of `verify`, that
raises becomes one failed row named after it, with the exception as lhs
and the traceback on stderr.  `verify all` runs every check of
``qkepler.checks`` and is the CI gate; only `verify`, `eigensolve` and
the full parser (bare ``qkepler``, ``--help``, an unknown command),
which lists the checks, import it.  Reports are deterministic, and no
command imports numpy or scipy: `wavefunction` samples on Python floats,
at the points ``numpy.linspace`` would give, and `residual` (on the
channel the gate reads, ``radial.ode_channel``), `eigensolve` and every
check of `verify`, the geometry rows too, are exact, on ints,
``Fraction``s and Gaussian integers.  The records are NamedTuples, not
data classes, so no command imports ``dataclasses`` or ``inspect``.  The
parser adds the arguments of the named command alone, and only
`degeneracy`, `ktype` and what imports ``qkepler.checks`` load
``qkepler.rep``.

``main()`` flushes stdout and stderr once ``run()`` returns, then ends
the process with ``os._exit`` and its status, skipping the interpreter's
teardown.  ``atexit`` handlers, those of other libraries too (a coverage
tool's subprocess hook, say), therefore do not run: code that needs them
calls ``run()`` in process.  If ``run()`` or a flush raises, the
exception propagates and the interpreter exits as it always does.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import spectral
from .report import CheckResult, Report, emit, row

__all__ = ["run", "main"]


# ---------------------------------------------------------------------------
# commands: each returns its rows


def _cmd_spectrum(args) -> list[CheckResult]:
    p = spectral.ModelParams(args.n, args.sigma)
    rows = []
    for I in range(args.imax + 1):
        e = spectral.energy(p, I)
        rows.append(row(f"E[I={I}]", lhs=e, rhs=float(e)))
    return rows


def _cmd_degeneracy(args) -> list[CheckResult]:
    p = spectral.ModelParams(args.n, args.sigma)
    return [row(f"I={I}", lhs=spectral.degeneracy(p, I))
            for I in range(args.imax + 1)]


def _cmd_ktype(args) -> list[CheckResult]:
    p = spectral.ModelParams(args.n, args.sigma)
    rows = []
    for I in range(args.imax + 1):
        w = spectral.ktype_weight(p, I)
        chk = spectral.ktype_dim_check(p, I)
        rows.append(row(f"weight[I={I}]",
                        lhs="(" + ",".join(str(e) for e in w.entries) + ")"))
        rows.append(row(f"dim[I={I}]", lhs=chk.u2n_dim, rhs=chk.sp_sum,
                        passed=chk.passed))
    return rows


def _linspace(lo: float, hi: float, num: int) -> list[float]:
    """``numpy.linspace(lo, hi, num)`` as floats, point for point: i*step +
    lo, with hi last, and [lo] for one point."""
    if num == 1:
        return [lo]
    step = (hi - lo) / (num - 1)
    return [i * step + lo for i in range(num - 1)] + [hi]


def _cmd_wavefunction(args) -> list[CheckResult]:
    from . import radial
    p = spectral.ModelParams(args.n, args.sigma)
    s = radial.RadialState(p, args.k, args.l)
    pts = _linspace(args.lo, args.hi, args.points)
    fun = radial.radial_t if args.coordinate == "t" else radial.radial_rho
    vals = fun(s, pts, normalized=args.normalized)
    # a value past the double range reads inf and fails its row
    return [row(f"sample[{i}]", lhs=x, rhs=v, passed=math.isfinite(v))
            for i, (x, v) in enumerate(zip(pts, vals))]


def _cmd_residual(args) -> list[CheckResult]:
    from . import radial
    s = radial.RadialState(spectral.ModelParams(args.n, args.sigma),
                           args.k, args.l)
    kepler = args.which == "kepler"
    channel = radial.ode_channel(s, "t" if kepler else "oscillator")
    ode = radial.kepler_ode if kepler else radial.oscillator_ode
    # a table with no channel holds at none of the m + 3 points
    held, points = ode(*channel) if channel else (0, s.laguerre_degree + 3)
    return [row(f"{args.which}-ode", lhs=held, rhs=points,
                passed=held == points)]


def _cmd_eigensolve(args) -> list[CheckResult]:
    from . import checks, radial
    tol = checks.EIGENSOLVE_TOL
    two_lam, energies = radial.galerkin_channel(
        spectral.ModelParams(args.n, args.sigma), args.l, args.count)
    certified = radial.laguerre_certified(two_lam, energies, tol)
    # the exact level and the high end of its enclosure
    return [row(f"E[{i}]", lhs=e, rhs=float(e * (1 - Fraction(tol))),
                tolerance=float(tol), passed=ok)
            for i, (e, ok) in enumerate(zip(energies, certified))]


def _cmd_micz(args) -> list[CheckResult]:
    rep_ = spectral.micz_check(args.sigma, i_max=args.imax)
    rows = [row("spectrum-exact", lhs=rep_.spectrum_exact, rhs=True,
                passed=rep_.spectrum_exact)]
    for j, ok in enumerate(rep_.operator_exact):
        rows.append(row(f"operator[r^{j}]", lhs=ok, rhs=True, passed=ok))
    rows.append(row("centrifugal", lhs=rep_.centrifugal,
                    rhs=rep_.charge_term,
                    passed=rep_.centrifugal == rep_.charge_term))
    return rows


def _cmd_verify(args) -> list[CheckResult]:
    from . import checks
    rows = []
    for name in checks.REGISTRY if args.check == "all" else [args.check]:
        seed = {"seed": args.seed} if name in checks.SEEDED else {}
        rows += _rows_or_fault(name, checks.REGISTRY[name], **seed)
    return rows


def _rows_or_fault(name: str, make: Callable[..., list[CheckResult]],
                   *args, **kwargs) -> list[CheckResult]:
    """``make(*args, **kwargs)``, or if it raises (a program fault, since
    the arguments parsed) one failed row ``name`` with ``Type: message``
    as lhs, and the traceback on stderr."""
    try:
        return make(*args, **kwargs)
    except Exception as exc:
        import traceback
        traceback.print_exc()
        return [row(name, lhs=f"{type(exc).__name__}: {exc}", passed=False)]


# ---------------------------------------------------------------------------
# parser


def _integer(lo: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return integer


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:  # false for nan
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text!r}")
    return value


def _common(cmd) -> None:
    cmd.add_argument("--format", choices=("text", "csv", "json"),
                     default="text", help="output format")
    cmd.add_argument("--timestamp", action="store_true",
                     help="stamp the report with the current UTC time "
                          "(off by default to keep output reproducible)")


def _model(cmd) -> None:
    cmd.add_argument("--n", type=_integer(2), required=True,
                     help="quaternionic dimension parameter, n >= 2")
    cmd.add_argument("--sigma", type=_integer(0), required=True,
                     metavar="SBAR",
                     help="twist highest weight (a non-negative integer)")


def _table(cmd) -> None:
    _model(cmd)
    cmd.add_argument("--imax", type=_integer(0), default=3)


def _wavefunction(cmd) -> None:
    _model(cmd)
    cmd.add_argument("--k", type=_integer(1), required=True)
    cmd.add_argument("--l", type=_integer(0), required=True)
    cmd.add_argument("--coordinate", choices=("t", "rho"), default="t")
    cmd.add_argument("--lo", type=_positive, default=0.2)
    cmd.add_argument("--hi", type=_positive, default=10.0)
    cmd.add_argument("--points", type=_integer(1), default=9)
    cmd.add_argument("--normalized", action="store_true")


def _residual(cmd) -> None:
    _model(cmd)
    cmd.add_argument("which", choices=("kepler", "oscillator"))
    cmd.add_argument("--k", type=_integer(1), required=True)
    cmd.add_argument("--l", type=_integer(0), required=True)


def _eigensolve(cmd) -> None:
    _model(cmd)
    cmd.add_argument("--l", type=_integer(0), required=True)
    cmd.add_argument("--count", type=_integer(1), default=3)


def _micz(cmd) -> None:
    cmd.add_argument("--sigma", type=_integer(0), required=True,
                     metavar="SBAR")
    cmd.add_argument("--imax", type=_integer(0), default=20)


def _verify(cmd) -> None:
    from . import checks
    # usage and errors name the positional by its metavar, not the list
    cmd.add_argument("check", metavar="check", help="%(choices)s",
                     choices=(*checks.REGISTRY, "all"))
    cmd.add_argument("--seed", type=_integer(0), help=(
        f"seed read by {' and '.join(sorted(checks.SEEDED))} "
        f"(default {checks.SEED})"))


# name: (command, help, the arguments it adds after --format and --timestamp)
_COMMANDS = {
    "spectrum": (_cmd_spectrum, "exact energy table", _table),
    "degeneracy": (_cmd_degeneracy, "eigenspace dimension table", _table),
    "ktype": (_cmd_ktype, "compact-group weight and dimension table", _table),
    "wavefunction": (_cmd_wavefunction,
                     "sample a closed-form radial profile", _wavefunction),
    "residual": (_cmd_residual, "operator residual of a closed-form state",
                 _residual),
    "eigensolve": (_cmd_eigensolve,
                   "Laguerre-Galerkin radial eigenvalues vs exact",
                   _eigensolve),
    "micz": (_cmd_micz, "n = 2 equivalence with the dimension-five model",
             _micz),
    "verify": (_cmd_verify, "acceptance checks; 'all' is the CI gate",
               _verify),
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of every command, or, when ``argv`` starts with a command
    name, one whose other commands have no arguments.  They stay choices
    with their help, and only the named command's parser ever reads
    ``argv``, so usage, help and errors read the same."""
    parser = argparse.ArgumentParser(
        prog="qkepler",
        description="Spectra, degeneracies, radial wavefunctions and "
                    "identity checks for the twisted quaternionic Kepler "
                    "models.")
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (func, text, arguments) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        if named in (None, name):
            cmd.set_defaults(func=func)
            _common(cmd)
            arguments(cmd)
    return parser


# not report parameters: the dispatch (the subcommand names the report)
# and the output flags
_NOT_PARAMETERS = {"command", "which", "func", "format", "timestamp"}


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":  # a seed iff the check reads one
            from . import checks
            if args.check not in {"all", *checks.SEEDED}:
                if args.seed is not None:
                    parser.error(f"verify {args.check} does not read --seed")
            elif args.seed is None:
                args.seed = checks.SEED
    except SystemExit as exc:  # the parser's exit: 2, or 0 after --help
        return exc.code if isinstance(exc.code, int) else 2
    # the positional argument, if any, completes the command's name
    which = vars(args).get("which", vars(args).get("check"))
    name = args.command if which is None else f"{args.command} {which}"
    params = {f: v for f, v in vars(args).items() if f not in _NOT_PARAMETERS}
    seed = params.pop("seed", None)  # a report field of its own
    rows = _rows_or_fault(name, args.func, args)
    report = Report(name, params, rows, seed=seed)
    if args.timestamp:
        from datetime import datetime, timezone
        report = report._replace(
            timestamp=datetime.now(timezone.utc).isoformat())
    sys.stdout.write(emit(report, args.format))
    return 0 if report.passed else 1


def main() -> None:
    code = run()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
