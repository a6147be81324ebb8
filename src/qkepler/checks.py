"""The acceptance criteria, each defined once.

``REGISTRY`` maps each ``verify`` name to its check, in criterion order:
criterion k is the k-th entry.  ``qkepler verify`` runs them (``all``
runs every entry in order and is the CI gate) and the acceptance tests
gate on them.  A check is a function of keyword arguments that returns
its ``CheckResult`` rows.  Its parameter names are the ``verify`` flags
it reads and its defaults are the gate's settings, so the signature is
the whole declaration: ``n=None`` sweeps the check's full range of n,
``seed`` seeds a randomized sweep and ``tol`` replaces the check's own
bound(s).
"""

from __future__ import annotations

import inspect
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import geom, radial, rep, spectral
from .report import CheckResult, row, worse

__all__ = ["REGISTRY", "FLAGS", "SEED", "flags", "kepler_grid",
           "oscillator_grid"]

SEED = 0  # the gate's seed for the randomized sweeps


def kepler_grid(p: spectral.ModelParams) -> radial.RadialGrid:
    return radial.RadialGrid.uniform(0.1, 40.0, 400, 2 * p.n)


def oscillator_grid(p: spectral.ModelParams) -> radial.RadialGrid:
    return radial.RadialGrid.uniform(0.1, 6.0, 300, 4 * p.n - 1)


def _ns(n: Optional[int], full: tuple) -> tuple:
    return (n,) if n is not None else full


def _resolved(name: str, sweep: Callable[[], float],
              tol: float) -> CheckResult:
    """The row of a sweep that returns its worst residual.

    An under-resolved sweep fails its row, with the reason as lhs.
    """
    try:
        worst = sweep()
    except radial.UnderResolved as exc:
        return row(name, lhs=str(exc), tolerance=tol, passed=False)
    return row(name, residual=worst, tolerance=tol, passed=worst < tol)


def eigensolve(tol: float = 1e-4) -> list[CheckResult]:
    """Finite-difference radial eigenvalues against the exact energies."""
    def sweep(n: int) -> float:
        worst = 0.0
        for sb in range(4):
            p = spectral.ModelParams(n, sb)
            for l in range(3):
                vals = radial.eigensolve(p, l, grid_size=4000, count=3)
                for i, num in enumerate(vals):
                    exact = float(spectral.energy(p, i + l))
                    worst = worse(worst, abs(num - exact) / abs(exact))
        return worst
    return [_resolved(f"eigensolve[n={n}]", lambda: sweep(n), tol)
            for n in (2, 3)]


def collapse() -> list[CheckResult]:
    """E(k, l) depends on k + l only, exactly, for 1 <= k and k + l <= 12."""
    rows = []
    for n in (2, 3, 4):
        cases = ok = 0
        for sb in range(7):
            p = spectral.ModelParams(n, sb)
            for k in range(1, 13):
                for l in range(13 - k):
                    cases += 1
                    q = spectral.QuantumNumbers(k, l)
                    ok += spectral.energy_kl(p, q) == spectral.energy(p, q.I)
        rows.append(row(f"collapse[n={n}]", lhs=ok, rhs=cases,
                        passed=ok == cases))
    return rows


def dim_equality(n: Optional[int] = None,
                 kmax: int = 12) -> list[CheckResult]:
    """Level dimensions against the 4n-dimensional oscillator, k <= kmax."""
    rows = []
    for n in _ns(n, (2, 3, 4)):
        ok = sum(spectral.dimension_equality_check(n, k).passed
                 for k in range(kmax + 1))
        rows.append(row(f"dim-equality[n={n}]", lhs=ok, rhs=kmax + 1,
                        passed=ok == kmax + 1))
    return rows


def genfunc(n: Optional[int] = None, kmax: int = 12) -> list[CheckResult]:
    """Generating-function coefficients up to k = kmax by three routes."""
    rows = []
    for n in _ns(n, (2, 3, 4)):
        chk = spectral.genfunc_check(n, kmax)
        rows.append(row(f"genfunc[n={n}]", lhs=kmax + 1,
                        rhs=kmax + 1 if chk.passed else 0,
                        passed=chk.passed))
    return rows


def dims() -> list[CheckResult]:
    """Closed-form dimensions of R_l against the Weyl formula, l, sbar <= 6."""
    rows = []
    for n in (2, 3, 4):
        cases = ok = 0
        for l in range(7):
            for sb in range(7):
                cases += 1
                hw = rep.HighestWeight([l + sb, l] + [0] * (n - 2))
                ok += rep.dim_R_l(n, sb, l) == rep.weyl_dim(
                    rep.RootSystem("C", n), hw)
        rows.append(row(f"dims[n={n}]", lhs=ok, rhs=cases,
                        passed=ok == cases))
    return rows


def ktype_dims(n: Optional[int] = None, smax: int = 5,
               imax: int = 5) -> list[CheckResult]:
    """U(2n) K-type dimensions against the Sp(n) decomposition."""
    rows = []
    for n in _ns(n, (2, 3)):
        cases = ok = 0
        for sb in range(smax + 1):
            for I in range(imax + 1):
                cases += 1
                ok += spectral.ktype_dim_check(
                    spectral.ModelParams(n, sb), I).passed
        rows.append(row(f"ktype-dims[n={n}]", lhs=ok, rhs=cases,
                        passed=ok == cases))
    return rows


def casimir(nmax: int = 5, lmax: int = 8, smax: int = 8) -> list[CheckResult]:
    """Angular eigenvalue is twice the Casimir difference, n <= nmax."""
    rows = []
    for n in range(2, nmax + 1):
        cases = ok = 0
        for l in range(lmax + 1):
            for sb in range(smax + 1):
                cases += 1
                lhs = Fraction(rep.angular_eigenvalue(n, sb, l))
                hw = rep.HighestWeight([l + sb, l] + [0] * (n - 2))
                diff = rep.casimir(rep.RootSystem("C", n), hw) \
                    - rep.casimir(rep.RootSystem("C", 1),
                                  rep.HighestWeight([sb]))
                ok += lhs == 2 * diff
        rows.append(row(f"casimir[n={n}]", lhs=ok, rhs=cases,
                        passed=ok == cases))
    return rows


def residuals(tol: float = 1e-8) -> list[CheckResult]:
    """Radial ODE residuals of closed forms; exact eigenvalue read-back."""
    rows = []
    for n in (2, 3):
        worst_k = worst_o = 0.0
        back_ok = cases = 0
        for sb in range(4):
            p = spectral.ModelParams(n, sb)
            for k in range(1, 6):
                for l in range(4):
                    s = radial.RadialState(p, k, l)
                    worst_k = worse(worst_k,
                                    radial.kepler_residual(s, kepler_grid(p)))
                    worst_o = worse(worst_o, radial.oscillator_residual(
                        s, oscillator_grid(p)))
                    cases += 1
                    back_ok += (radial.oscillator_eigenvalue_exact(s)
                                == s.oscillator_level)
        rows.append(row(f"residual-kepler[n={n}]", residual=worst_k,
                        tolerance=tol, passed=worst_k < tol))
        rows.append(row(f"residual-oscillator[n={n}]", residual=worst_o,
                        tolerance=tol, passed=worst_o < tol))
        rows.append(row(f"readback[n={n}]", lhs=back_ok, rhs=cases,
                        passed=back_ok == cases))
    return rows


def twist(tol: float = 1e-20) -> list[CheckResult]:
    """Twisted Kepler profiles are constant multiples of oscillator ones."""
    r = np.linspace(0.2, 5.0, 200)
    rows = []
    for n in (2, 3):
        worst = 0.0
        for sb in range(4):
            p = spectral.ModelParams(n, sb)
            for k in range(1, 6):
                for l in range(4):
                    s = radial.RadialState(p, k, l)
                    ratio = radial.twist_profile(s, r) \
                        / radial.oscillator_profile(s, r)
                    scaled = ratio / np.mean(ratio)
                    worst = worse(worst, float(np.var(scaled)))
        rows.append(row(f"twist[n={n}]", residual=worst, tolerance=tol,
                        passed=worst < tol))
    return rows


def micz(tol: float = 1e-6) -> list[CheckResult]:
    """n = 2 equivalence with the five-dimensional monopole model."""
    rows = []
    for sb in range(7):
        rep_ = radial.micz_check(sb, i_max=20, tolerance=tol)
        worst = float(np.max(rep_.operator_residuals))
        rows.append(row(f"micz[{sb}]",
                        lhs=rep_.spectrum_exact, rhs=True,
                        residual=worst, tolerance=tol,
                        passed=rep_.passed))
    return rows


def metric(n: Optional[int] = None, samples: int = 1000, seed: int = SEED,
           tol: Optional[float] = None) -> list[CheckResult]:
    """Fubini-Study metric identity and quotient factor at random points."""
    mtol, qtol = (1e-12, 1e-13) if tol is None else (tol, tol)
    rows = []
    for n in _ns(n, (2, 3, 4)):
        r = geom.metric_sweep(n, samples, seed)
        rows.append(row(f"metric[n={n}]", residual=r, tolerance=mtol,
                        passed=r < mtol))
        q = geom.quotient_sweep(n, samples, seed)
        rows.append(row(f"quotient[n={n}]", residual=q, tolerance=qtol,
                        passed=q < qtol))
    return rows


def ostar(n: Optional[int] = None, samples: int = 100, seed: int = SEED,
          tol: float = 1e-10) -> list[CheckResult]:
    """Random Sp(n) elements lie in O*(4n); weight doubling for n <= 6.

    ``tol`` bounds the membership sweep; the weight-doubling map is
    checked exhaustively at a fixed 1e-14.
    """
    rows = []
    for n in _ns(n, (2, 3)):
        passes, total = geom.ostar_sweep(n, samples, seed, tol=tol)
        rows.append(row(f"ostar[n={n}]", lhs=passes, rhs=total,
                        tolerance=tol, passed=passes == total))
    # a phase planted at slot i must land at the doubled index,
    # conjugated on the u-side embedding and plain on the uv-side
    cases = ok = 0
    for n in range(1, 7):
        phase = np.exp(0.7j)
        for i in range(1, 2 * n + 1):
            cases += 1
            A = np.eye(2 * n, dtype=complex)
            A[i - 1, i - 1] = phase
            ibar = geom.weight_double(i, n)
            d = np.diag(geom.embed_u2n(A)).copy()
            du = np.diag(geom.embed_u2n_uv(A)).copy()
            good = (abs(d[ibar - 1] - np.conj(phase)) < 1e-14
                    and abs(du[ibar - 1] - phase) < 1e-14)
            d[i - 1] = d[ibar - 1] = 1.0
            good = good and np.all(np.abs(d - 1.0) < 1e-14)
            ok += bool(good)
    rows.append(row("weight-double[n<=6]", lhs=ok, rhs=cases,
                    passed=ok == cases))
    return rows


def schur(smax: int = 10, points: int = 256,
          tol: float = 1e-6) -> list[CheckResult]:
    """Schur orthonormality of the Sp(1) characters up to weight smax."""
    rows = []
    for sb in range(smax + 1):
        norm = rep.schur_norm(sb, quadrature_points=points)
        rows.append(row(f"schur-norm[{sb}]", lhs=norm, rhs=1.0,
                        residual=abs(norm - 1.0), tolerance=tol,
                        passed=abs(norm - 1.0) < tol))
    if smax == 0:  # no pair of distinct weights to cross
        return rows
    worst = 0.0
    for s1 in range(smax + 1):
        for s2 in range(s1 + 1, smax + 1):
            worst = worse(worst, abs(rep.character_inner(
                s1, s2, quadrature_points=points)))
    rows.append(row("schur-cross", residual=worst, tolerance=tol,
                    passed=worst < tol))
    return rows


def orthogonality(tol: float = 1e-7) -> list[CheckResult]:
    """Gram matrix of the first six radial states at n = 2 is the identity."""
    def sweep() -> float:
        worst = 0.0
        for sb in range(3):
            p = spectral.ModelParams(2, sb)
            for l in range(3):
                G = radial.orthogonality_check(p, l, k_max=6)
                worst = worse(worst, float(np.max(np.abs(G - np.eye(6)))))
        return worst
    return [_resolved("orthogonality[n=2]", sweep, tol)]


REGISTRY: dict[str, Callable[..., list[CheckResult]]] = {
    check.__name__.replace("_", "-"): check for check in (
        eigensolve, collapse, dim_equality, genfunc, dims, ktype_dims,
        casimir, residuals, twist, micz, metric, ostar, schur,
        orthogonality)}


def flags(check: Callable[..., list[CheckResult]]) -> dict:
    """The ``verify`` flags a check reads, mapped to the gate's values."""
    return {p.name: p.default
            for p in inspect.signature(check).parameters.values()}


FLAGS = frozenset(f for check in REGISTRY.values() for f in flags(check))
