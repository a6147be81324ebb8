"""The acceptance criteria, each defined once.

``REGISTRY`` maps each ``verify`` name to its check, in criterion order:
criterion k is the k-th entry.  ``qkepler verify`` runs them (``all``
runs every entry in order and is the CI gate) and the acceptance tests
gate on them.  A check returns its ``CheckResult`` rows; it sweeps the
gate's ranges and holds its own bounds, so it takes no arguments, except
that the randomized checks named in ``SEEDED`` take ``seed``.  A check
imports numpy, ``radial`` or ``geom`` when it runs, so loading this
module loads neither.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable

from . import rep, spectral
from .report import CheckResult, row, worse

__all__ = ["REGISTRY", "SEEDED", "SEED", "RESIDUAL_TOL", "EIGENSOLVE_TOL"]

SEED = 0  # the gate's seed for the randomized sweeps
RESIDUAL_TOL = 1e-8  # radial ODE residuals, here and in `residual`
EIGENSOLVE_TOL = 1e-10  # Laguerre-Galerkin eigenvalues, here and in `eigensolve`


def _resolved(name: str, sweep: Callable[[], float],
              tol: float) -> CheckResult:
    """The row of a sweep that returns its worst residual.

    An under-resolved sweep fails its row, with the reason as lhs.
    """
    from .radial import UnderResolved
    try:
        worst = sweep()
    except UnderResolved as exc:
        return row(name, lhs=str(exc), tolerance=tol, passed=False)
    return row(name, residual=worst, tolerance=tol, passed=worst < tol)


def eigensolve() -> list[CheckResult]:
    """Laguerre-Galerkin radial eigenvalues against the exact energies, to
    EIGENSOLVE_TOL.  The levels depend on (sigma_bar, l) only through the
    Laguerre index, so each index is solved once."""
    from . import radial
    solved = {}
    def sweep(n: int) -> float:
        worst = 0.0
        for sb in range(4):
            p = spectral.ModelParams(n, sb)
            for l in range(3):
                index = radial.RadialState(p, 1, l).laguerre_index
                if index not in solved:
                    solved[index], _ = radial.laguerre_eigenvalues(p, l, 3)
                for i, num in enumerate(solved[index]):
                    exact = float(spectral.energy(p, i + l))
                    worst = worse(worst, abs(num - exact) / abs(exact))
        return worst
    return [_resolved(f"eigensolve[n={n}]", lambda: sweep(n), EIGENSOLVE_TOL)
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


def dim_equality() -> list[CheckResult]:
    """Level dimensions against the 4n-dimensional oscillator, k <= 12."""
    rows = []
    for n in (2, 3, 4):
        ok = sum(spectral.dimension_equality_check(n, k).passed
                 for k in range(13))
        rows.append(row(f"dim-equality[n={n}]", lhs=ok, rhs=13,
                        passed=ok == 13))
    return rows


def genfunc() -> list[CheckResult]:
    """Generating-function coefficients up to k = 12 by three routes."""
    rows = []
    for n in (2, 3, 4):
        chk = spectral.genfunc_check(n, 12)
        ok = sum(c == b == i for c, b, i in zip(
            chk.coefficients, chk.binomial, chk.inverted))
        rows.append(row(f"genfunc[n={n}]", lhs=ok, rhs=13, passed=ok == 13))
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


def ktype_dims() -> list[CheckResult]:
    """U(2n) K-type dimensions against the Sp(n) decomposition for
    sbar, I <= 5."""
    rows = []
    for n in (2, 3):
        cases = ok = 0
        for sb in range(6):
            for I in range(6):
                cases += 1
                ok += spectral.ktype_dim_check(
                    spectral.ModelParams(n, sb), I).passed
        rows.append(row(f"ktype-dims[n={n}]", lhs=ok, rhs=cases,
                        passed=ok == cases))
    return rows


def casimir() -> list[CheckResult]:
    """Angular eigenvalue is twice the Casimir difference, n <= 5 and
    l, sbar <= 8."""
    rows = []
    for n in range(2, 6):
        cases = ok = 0
        for l in range(9):
            for sb in range(9):
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


def residuals() -> list[CheckResult]:
    """Radial ODE residuals of closed forms, one batch per operator and n;
    exact eigenvalue read-back.  H~ reads a state only through n, 2 ell
    and the Laguerre degree m, so each (2 ell, m) channel is read back
    once and its value compared with every state of the channel."""
    from . import radial
    rows = []
    for n in (2, 3):
        states = [radial.RadialState(spectral.ModelParams(n, sb), k, l)
                  for sb in range(4) for k in range(1, 6) for l in range(4)]
        worst_k, worst_o = (functools.reduce(
            worse, radial.residuals(op, states)[0].tolist(), 0.0)
            for op in ("kepler", "oscillator"))
        back: dict[tuple[int, int], Fraction] = {}
        back_ok = 0
        for s in states:
            channel = (s.two_ell, s.laguerre_degree)
            if channel not in back:
                back[channel] = radial.oscillator_eigenvalue_exact(s)
            back_ok += back[channel] == s.oscillator_level
        rows.append(row(f"residual-kepler[n={n}]", residual=worst_k,
                        tolerance=RESIDUAL_TOL, passed=worst_k < RESIDUAL_TOL))
        rows.append(row(f"residual-oscillator[n={n}]", residual=worst_o,
                        tolerance=RESIDUAL_TOL, passed=worst_o < RESIDUAL_TOL))
        rows.append(row(f"readback[n={n}]", lhs=back_ok, rhs=len(states),
                        passed=back_ok == len(states)))
    return rows


def twist() -> list[CheckResult]:
    """Twisted Kepler profiles are constant multiples of oscillator ones:
    the twist's power and c^2 composed with the rho exponents give the
    oscillator's, exactly."""
    from . import radial
    rows = []
    for n in (2, 3):
        cases = ok = 0
        for sb in range(4):
            p = spectral.ModelParams(n, sb)
            for k in range(1, 6):
                for l in range(4):
                    s = radial.RadialState(p, k, l)
                    power, scale, rate = radial.exponents(s, "rho")
                    shift, c2 = radial.twist_exponents(s)
                    cases += 1
                    ok += (power + shift, scale * c2, rate * c2) \
                        == radial.exponents(s, "oscillator")
        rows.append(row(f"twist[n={n}]", lhs=ok, rhs=cases,
                        passed=ok == cases))
    return rows


def micz() -> list[CheckResult]:
    """n = 2 equivalence with the five-dimensional monopole model: the
    spectrum, the operator on r^j (j <= 3) and the centrifugal read-back,
    each an exact identity."""
    rows = []
    for sb in range(7):
        ids = spectral.micz_check(sb, i_max=20).identities
        rows.append(row(f"micz[{sb}]", lhs=sum(ids), rhs=len(ids),
                        passed=all(ids)))
    return rows


def metric(seed: int = SEED) -> list[CheckResult]:
    """At 1000 random points each: the Fubini-Study form is |W_perp|^2/|Z|^2,
    with W_perp the part of W orthogonal to the line Z H, formed by
    quaternion products; and the Sp(n) trace form is twice it."""
    from . import geom
    rows = []
    for n in (2, 3, 4):
        r = geom.metric_sweep(n, 1000, seed)
        rows.append(row(f"metric[n={n}]", residual=r, tolerance=1e-12,
                        passed=r < 1e-12))
        q = geom.quotient_sweep(n, 1000, seed)
        rows.append(row(f"quotient[n={n}]", residual=q, tolerance=1e-13,
                        passed=q < 1e-13))
    return rows


def ostar(seed: int = SEED) -> list[CheckResult]:
    """200 random U(2n) images lie in O*(4n), to 1e-10 (Sp(n) lands there
    as part of U(2n)); the weight-doubling map, exhaustively for n <= 6,
    to 1e-14."""
    import numpy as np
    from . import geom
    rows = []
    for n in (2, 3):
        passes, total = geom.ostar_sweep(n, 200, seed)
        rows.append(row(f"ostar[n={n}]", lhs=passes, rhs=total,
                        tolerance=geom.MEMBERSHIP_TOL, passed=passes == total))
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


def schur() -> list[CheckResult]:
    """Schur orthonormality of the Sp(1) characters up to weight 10,
    exactly."""
    rows = []
    for sb in range(11):
        norm = rep.schur_norm(sb)
        rows.append(row(f"schur-norm[{sb}]", lhs=norm, rhs=1,
                        passed=norm == 1))
    pairs = [(s1, s2) for s1 in range(11) for s2 in range(s1 + 1, 11)]
    ok = sum(rep.character_inner(s1, s2) == 0 for s1, s2 in pairs)
    rows.append(row("schur-cross", lhs=ok, rhs=len(pairs),
                    passed=ok == len(pairs)))
    return rows


def orthogonality() -> list[CheckResult]:
    """Gram matrix of the first six radial states at n = 2 is the identity,
    to 1e-12: its Gauss-Laguerre sums are exact, so only rounding is left."""
    import numpy as np
    from . import radial
    def sweep() -> float:
        worst = 0.0
        for sb in range(3):
            p = spectral.ModelParams(2, sb)
            for l in range(3):
                G = radial.orthogonality_check(p, l, k_max=6)
                worst = worse(worst, float(np.max(np.abs(G - np.eye(6)))))
        return worst
    return [_resolved("orthogonality[n=2]", sweep, 1e-12)]


REGISTRY: dict[str, Callable[..., list[CheckResult]]] = {
    check.__name__.replace("_", "-"): check for check in (
        eigensolve, collapse, dim_equality, genfunc, dims, ktype_dims,
        casimir, residuals, twist, micz, metric, ostar, schur,
        orthogonality)}

SEEDED = frozenset({"metric", "ostar"})  # the checks that take ``seed``
