"""Command-line front end.

Every command exits 1 when any row fails and 2 on argument errors,
including sizes that would make a table or sweep empty and flags the
chosen check does not read.  A table row fails only when the identity
it prints does not hold (ktype dimensions) or its wavefunction sample
lies past the double range.  A numerical check that finds its own grid
or domain too small (an under-resolution), or that raises, fails a row
that names the reason.  `verify` runs the checks of ``qkepler.checks``,
which the test suite gates on, so `verify all` doubles as the CI entry
point.  Output is deterministic: the same arguments and seed give
byte-identical reports.  A command imports the numerical layers it uses
when it runs, so spectrum, degeneracy and ktype load no numpy or scipy.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import checks, spectral
from .report import Report, emit, row

__all__ = ["run", "main"]


# ---------------------------------------------------------------------------
# table commands


def _cmd_spectrum(args) -> Report:
    p = spectral.ModelParams(args.n, args.sigma)
    rows = []
    for I in range(args.imax + 1):
        e = spectral.energy(p, I)
        rows.append(row(f"E[I={I}]", lhs=e, rhs=float(e)))
    return Report("spectrum", {"n": args.n, "sigma": args.sigma,
                               "imax": args.imax}, rows)


def _cmd_degeneracy(args) -> Report:
    p = spectral.ModelParams(args.n, args.sigma)
    rows = [row(f"I={I}", lhs=spectral.degeneracy(p, I))
            for I in range(args.imax + 1)]
    return Report("degeneracy", {"n": args.n, "sigma": args.sigma,
                                 "imax": args.imax}, rows)


def _cmd_ktype(args) -> Report:
    p = spectral.ModelParams(args.n, args.sigma)
    rows = []
    for I in range(args.imax + 1):
        w = spectral.ktype_weight(p, I)
        chk = spectral.ktype_dim_check(p, I)
        rows.append(row(f"weight[I={I}]",
                        lhs="(" + ",".join(str(e) for e in w.entries) + ")"))
        rows.append(row(f"dim[I={I}]", lhs=chk.u2n_dim, rhs=chk.sp_sum,
                        passed=chk.passed))
    return Report("ktype", {"n": args.n, "sigma": args.sigma,
                            "imax": args.imax}, rows)


def _cmd_wavefunction(args) -> Report:
    import numpy as np
    from . import radial
    p = spectral.ModelParams(args.n, args.sigma)
    s = radial.RadialState(p, args.k, args.l)
    pts = np.linspace(args.lo, args.hi, args.points)
    fun = radial.radial_t if args.coordinate == "t" else radial.radial_rho
    vals = fun(s, pts, normalized=args.normalized)
    # a value past the double range reads inf and fails its row
    rows = [row(f"sample[{i}]", lhs=float(x), rhs=float(v),
                passed=math.isfinite(v))
            for i, (x, v) in enumerate(zip(pts, vals))]
    return Report("wavefunction",
                  {"n": args.n, "sigma": args.sigma, "k": args.k, "l": args.l,
                   "coordinate": args.coordinate, "lo": args.lo,
                   "hi": args.hi, "points": args.points,
                   "normalized": args.normalized}, rows)


# ---------------------------------------------------------------------------
# check commands


def _cmd_residual(args) -> Report:
    from . import radial
    p = spectral.ModelParams(args.n, args.sigma)
    s = radial.RadialState(p, args.k, args.l)
    tol = args.tol if args.tol is not None else 1e-8
    params = {"n": args.n, "sigma": args.sigma, "k": args.k, "l": args.l}
    rows = []
    if args.which == "kepler":
        grid = checks.kepler_grid(s)
        params["t_max"] = float(grid.points[-1])
        r = radial.kepler_residual(s, grid)
        rows.append(row("kepler-residual", residual=r, tolerance=tol,
                        passed=r < tol))
    else:
        grid = checks.oscillator_grid(s)
        params["r_max"] = float(grid.points[-1])
        r = radial.oscillator_residual(s, grid)
        rows.append(row("oscillator-residual", residual=r, tolerance=tol,
                        passed=r < tol))
        back = radial.oscillator_eigenvalue_exact(s)
        rows.append(row("eigenvalue-readback", lhs=back,
                        rhs=s.oscillator_level,
                        passed=back == s.oscillator_level))
    return Report(f"residual {args.which}", params, rows)


def _cmd_eigensolve(args) -> Report:
    from . import radial
    p = spectral.ModelParams(args.n, args.sigma)
    tol = args.tol if args.tol is not None else 1e-4
    rows = []
    try:
        vals = radial.eigensolve(p, args.l, grid_size=args.grid,
                                 t_max=args.tmax, count=args.count)
    except radial.UnderResolved as exc:
        vals = ()
        rows.append(row("resolution", lhs=str(exc), passed=False))
    for i, num in enumerate(vals):
        exact = float(spectral.energy(p, i + args.l))
        rel = abs(num - exact) / abs(exact)
        rows.append(row(f"E[{i}]", lhs=float(num), rhs=exact,
                        residual=rel, tolerance=tol, passed=rel < tol))
    return Report("eigensolve",
                  {"n": args.n, "sigma": args.sigma, "l": args.l,
                   "grid": args.grid, "count": args.count,
                   "tmax": args.tmax}, rows)


def _cmd_micz(args) -> Report:
    from . import radial
    tol = args.tol if args.tol is not None else 1e-6
    rep_ = radial.micz_check(args.sigma, i_max=args.imax, tolerance=tol)
    rows = [row("spectrum-exact", lhs=rep_.spectrum_exact, rhs=True,
                passed=rep_.spectrum_exact)]
    for j, r in enumerate(rep_.operator_residuals):
        rows.append(row(f"operator[{j}]", residual=r, tolerance=tol,
                        passed=r < tol))
    rows.append(row("centrifugal-fit", residual=rep_.centrifugal_deviation,
                    tolerance=tol,
                    passed=rep_.centrifugal_deviation < tol))
    return Report("micz", {"sigma": args.sigma, "imax": args.imax}, rows)


def _cmd_verify(args) -> Report:
    # verify flags default to SUPPRESS, so only the given ones are in args
    given = {f: v for f, v in vars(args).items() if f in checks.FLAGS}
    if args.check == "all":
        selected, reads, params = list(checks.REGISTRY), {"seed"}, {}
    else:
        selected = [args.check]
        reads = checks.flags(checks.REGISTRY[args.check])
        # the seed has its own report field and tolerances show per row
        params = {f: given.get(f, v) for f, v in reads.items()
                  if f not in ("seed", "tol")}
    unread = sorted(given.keys() - reads)
    if unread:
        raise ValueError(
            f"verify {args.check} does not read "
            + ", ".join(f"--{f}" for f in unread)
            + ("; give a check name to set them"
               if args.check == "all" else ""))
    rows = []
    for name in selected:
        check = checks.REGISTRY[name]
        try:
            rows += check(**{f: v for f, v in given.items()
                             if f in checks.flags(check)})
        except Exception as exc:  # a fault in the check, not in its flags
            import traceback
            traceback.print_exc()
            rows.append(row(name, lhs=f"{type(exc).__name__}: {exc}",
                            passed=False))
    return Report(f"verify {args.check}", {"check": args.check, **params},
                  rows, seed=given.get("seed", checks.SEED))


# ---------------------------------------------------------------------------
# parser


def _at_least(lo: int):
    def count(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return count


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"),
                        default="text", help="output format")
    common.add_argument("--timestamp", action="store_true",
                        help="stamp the report with the current UTC time "
                             "(off by default to keep output reproducible)")

    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tol", type=float, default=None,
                           help="override the check's tolerance")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--n", type=int, required=True,
                       help="quaternionic dimension parameter, n >= 2")
    model.add_argument("--sigma", type=int, required=True, metavar="SBAR",
                       help="twist highest weight (a non-negative integer)")

    parser = argparse.ArgumentParser(
        prog="qkepler",
        description="Spectra, degeneracies, radial wavefunctions and "
                    "identity checks for the twisted quaternionic Kepler "
                    "models.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common, model],
                        help="exact energy table")
    sp.add_argument("--imax", type=_at_least(0), default=3)
    sp.set_defaults(func=_cmd_spectrum)

    dg = sub.add_parser("degeneracy", parents=[common, model],
                        help="eigenspace dimension table")
    dg.add_argument("--imax", type=_at_least(0), default=3)
    dg.set_defaults(func=_cmd_degeneracy)

    kt = sub.add_parser("ktype", parents=[common, model],
                        help="compact-group weight and dimension table")
    kt.add_argument("--imax", type=_at_least(0), default=3)
    kt.set_defaults(func=_cmd_ktype)

    wf = sub.add_parser("wavefunction", parents=[common, model],
                        help="sample a closed-form radial profile")
    wf.add_argument("--k", type=int, required=True)
    wf.add_argument("--l", type=int, required=True)
    wf.add_argument("--coordinate", choices=("t", "rho"), default="t")
    wf.add_argument("--lo", type=float, default=0.2)
    wf.add_argument("--hi", type=float, default=10.0)
    wf.add_argument("--points", type=_at_least(1), default=9)
    wf.add_argument("--normalized", action="store_true")
    wf.set_defaults(func=_cmd_wavefunction)

    rs = sub.add_parser("residual", parents=[common, tolerance, model],
                        help="operator residual of a closed-form state")
    rs.add_argument("which", choices=("kepler", "oscillator"))
    rs.add_argument("--k", type=int, required=True)
    rs.add_argument("--l", type=int, required=True)
    rs.set_defaults(func=_cmd_residual)

    ei = sub.add_parser("eigensolve", parents=[common, tolerance, model],
                        help="discretized radial eigenvalues vs exact")
    ei.add_argument("--l", type=int, required=True)
    ei.add_argument("--grid", type=int, default=4000)
    ei.add_argument("--count", type=int, default=3)
    ei.add_argument("--tmax", type=float, default=None)
    ei.set_defaults(func=_cmd_eigensolve)

    mz = sub.add_parser("micz", parents=[common, tolerance],
                        help="n = 2 equivalence with the dimension-five model")
    mz.add_argument("--sigma", type=int, required=True, metavar="SBAR")
    mz.add_argument("--imax", type=_at_least(0), default=20)
    mz.set_defaults(func=_cmd_micz)

    # a check reads the flags named by its parameters and defaults them
    # itself; unset flags stay out of the namespace (see _cmd_verify)
    reads = [f"  {name}: " + " ".join(f"--{f}" for f in checks.flags(c))
             for name, c in checks.REGISTRY.items()]
    vf = sub.add_parser(
        "verify", parents=[common], argument_default=argparse.SUPPRESS,
        help="acceptance checks; 'all' is the CI gate",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(["flags each check reads ('all' reads --seed only):",
                          *reads]))
    vf.add_argument("check", choices=(*checks.REGISTRY, "all"))
    vf.add_argument("--seed", type=int,
                    help=f"seed for randomized sweeps (default {checks.SEED})")
    vf.add_argument("--tol", type=float,
                    help="override the named check's tolerance(s)")
    vf.add_argument("--n", type=_at_least(2),
                    help="restrict sweeps to one n (default: the full range)")
    vf.add_argument("--kmax", type=_at_least(1))
    vf.add_argument("--nmax", type=_at_least(2))
    vf.add_argument("--lmax", type=_at_least(0))
    vf.add_argument("--smax", type=_at_least(0),
                    help="largest twist weight")
    vf.add_argument("--imax", type=_at_least(0))
    vf.add_argument("--samples", type=_at_least(1),
                    help="sample count for seeded sweeps")
    vf.add_argument("--points", type=_at_least(64))
    vf.set_defaults(func=_cmd_verify)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        report = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.timestamp:
        from datetime import datetime, timezone
        report = Report(command=report.command,
                        parameters=report.parameters,
                        results=report.results,
                        seed=report.seed,
                        timestamp=datetime.now(timezone.utc).isoformat())
    sys.stdout.write(emit(report, args.format))
    return 0 if report.passed else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
