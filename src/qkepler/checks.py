"""The acceptance criteria, each defined once.

``REGISTRY`` maps each ``verify`` name to its check, in criterion order:
criterion k is the k-th entry.  ``qkepler verify`` runs them (``all``
runs every entry in order and is the CI gate) and the acceptance tests
gate on them.  A check returns its ``CheckResult`` rows; it sweeps the
gate's ranges and holds its own bounds, so it takes no arguments, except
that the randomized checks named in ``SEEDED`` take ``seed``.  A row is
a counted identity (``_tally``) or a worst residual against its bound
(``_resolved``); only ``schur-norm`` and ``ostar`` are built by hand.
A check imports numpy, ``radial`` or ``geom`` when it runs, so loading
this module loads none of them.  Only ``metric`` and ``ostar`` load
numpy: ``eigensolve`` certifies its levels by exact integer counts.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable

from . import rep, spectral
from .report import CheckResult, row

__all__ = ["REGISTRY", "SEEDED", "SEED", "EIGENSOLVE_TOL"]

SEED = 0  # the gate's seed for the randomized sweeps
EIGENSOLVE_TOL = 1e-10  # Laguerre-Galerkin levels, here and in `eigensolve`


def _tally(name: str, outcomes: Iterable[bool]) -> CheckResult:
    """The row of a counted identity: lhs of the rhs outcomes hold.

    It passes only when every outcome holds; an empty tally checked
    nothing, so it fails.
    """
    outcomes = [bool(ok) for ok in outcomes]
    held = sum(outcomes)
    return row(name, lhs=held, rhs=len(outcomes),
               passed=held == len(outcomes) > 0)


def _resolved(name: str, worst: float, tol: float) -> CheckResult:
    """The row of a sweep's worst residual against its bound."""
    return row(name, residual=worst, tolerance=tol, passed=worst < tol)


def _r_l_weight(n: int, sb: int, l: int) -> rep.HighestWeight:
    """The C_n highest weight (l + sbar, l, 0, ..., 0) of R_l."""
    return rep.HighestWeight([l + sb, l] + [0] * (n - 2))


@functools.cache
def _states(n: int) -> tuple:
    """The states sbar <= 3, k <= 5, l <= 3 that residuals and twist sweep,
    built once: each caches its nu and exponent tables."""
    from . import radial
    return tuple(radial.RadialState(spectral.ModelParams(n, sb), k, l)
                 for sb in range(4) for k in range(1, 6) for l in range(4))


def eigensolve() -> list[CheckResult]:
    """The three lowest exact energies of each channel sbar <= 3, l <= 2,
    each certified by the Laguerre-Galerkin levels to EIGENSOLVE_TOL in
    exact Sturm counts (``radial.laguerre_certified``).  The levels depend
    on (sigma_bar, l) only through 2 lambda, the Laguerre index less one,
    so each 2 lambda and its energies are certified once."""
    from . import radial
    certified = functools.cache(radial.laguerre_certified)
    def levels(p: spectral.ModelParams, l: int) -> list[bool]:
        two_lam = radial.RadialState(p, 1, l).laguerre_index - 1
        energies = tuple(spectral.energy(p, l + i) for i in range(3))
        return certified(two_lam, energies, EIGENSOLVE_TOL)
    return [_tally(f"eigensolve[n={n}]", (
        ok for sb in range(4) for p in [spectral.ModelParams(n, sb)]
        for l in range(3) for ok in levels(p, l))) for n in (2, 3)]


def collapse() -> list[CheckResult]:
    """E(k, l) depends on k + l only, exactly, for 1 <= k and k + l <= 12."""
    return [_tally(f"collapse[n={n}]", (
        spectral.energy_kl(p, k, I + 1 - k) == level
        for sb in range(7) for p in [spectral.ModelParams(n, sb)]
        for I in range(12) for level in [spectral.energy(p, I)]
        for k in range(1, I + 2))) for n in (2, 3, 4)]


def dim_equality() -> list[CheckResult]:
    """Level dimensions against the 4n-dimensional oscillator, k <= 12."""
    return [_tally(f"dim-equality[n={n}]", (
        spectral.dimension_equality_check(n, k).passed for k in range(13)))
        for n in (2, 3, 4)]


def genfunc() -> list[CheckResult]:
    """Generating-function coefficients k = 0..12 by three routes.  A
    route short of a coefficient is a fault, not a shorter row."""
    return [_tally(f"genfunc[n={n}]", (
        chk.coefficients[k] == chk.binomial[k] == chk.inverted[k]
        for k in range(13)))
        for n in (2, 3, 4) for chk in [spectral.genfunc_check(n, 12)]]


def dims() -> list[CheckResult]:
    """Closed-form dimensions of R_l against the Weyl formula, l, sbar <= 6."""
    return [_tally(f"dims[n={n}]", (
        rep.dim_R_l(n, sb, l) == rep.weyl_dim(cn, _r_l_weight(n, sb, l))
        for l in range(7) for sb in range(7)))
        for n in (2, 3, 4) for cn in [rep.RootSystem("C", n)]]


def ktype_dims() -> list[CheckResult]:
    """U(2n) K-type dimensions against the Sp(n) decomposition for
    sbar, I <= 5."""
    return [_tally(f"ktype-dims[n={n}]", (
        spectral.ktype_dim_check(spectral.ModelParams(n, sb), I).passed
        for sb in range(6) for I in range(6))) for n in (2, 3)]


def casimir() -> list[CheckResult]:
    """Angular eigenvalue is twice the Casimir difference, n <= 5 and
    l, sbar <= 8."""
    sp1 = [rep.casimir(rep.RootSystem("C", 1), rep.HighestWeight([sb]))
           for sb in range(9)]
    return [_tally(f"casimir[n={n}]", (
        rep.angular_eigenvalue(n, sb, l)
        == 2 * (rep.casimir(cn, _r_l_weight(n, sb, l)) - sp1[sb])
        for l in range(9) for sb in range(9)))
        for n in range(2, 6) for cn in [rep.RootSystem("C", n)]]


def residuals() -> list[CheckResult]:
    """The Kepler and oscillator radial equations hold for the closed forms,
    exactly, on ints at m + 3 points (``radial.kepler_ode``).  A state's
    channel (n, 2 ell, m) is read from the table its profiles are sampled
    from, ``radial.exponents``: 2 ell is twice the t power, or the
    oscillator power, and the table's scale and rate must be those of the
    envelope the reduced operator divides out (2/nu and 1/nu in t, nu =
    ell + m + n; 1 and 1/2 in the oscillator).  A state reaches an
    identity only through its channel and its energy or level, so each
    distinct one is checked once."""
    from . import radial
    def kepler(s):
        power, scale, rate = radial.exponents(s, "t")
        nu = power + (s.laguerre_degree + s.params.n)
        return (2 * power, rate * nu == 1 and scale == 2 * rate,
                spectral.energy(s.params, s.I))
    def oscillator(s):
        power, scale, rate = radial.exponents(s, "oscillator")
        return power, scale == 2 * rate == 1, s.oscillator_level
    def holds(once, n: int, s, read) -> bool:
        two_ell, envelope, eigen = read(s)
        if not envelope or two_ell.denominator != 1:
            return False
        held, points = once(n, two_ell.numerator, s.laguerre_degree, eigen)
        return held == points
    identities = (
        ("kepler-ode", functools.cache(radial.kepler_ode), kepler),
        ("oscillator-ode", functools.cache(radial.oscillator_ode), oscillator))
    return [_tally(f"{name}[n={n}]", (holds(once, n, s, read) for s in states))
            for n in (2, 3) for states in [_states(n)]
            for name, once, read in identities]


def twist() -> list[CheckResult]:
    """Twisted Kepler profiles are constant multiples of oscillator ones:
    the twist's power and c^2 composed with the rho exponents give the
    oscillator's, exactly."""
    from . import radial
    def composes(s) -> bool:
        power, scale, rate = radial.exponents(s, "rho")
        shift, c2 = radial.twist_exponents(s)
        return ((power + shift, scale * c2, rate * c2)
                == radial.exponents(s, "oscillator"))
    return [_tally(f"twist[n={n}]", map(composes, _states(n)))
            for n in (2, 3)]


def micz() -> list[CheckResult]:
    """n = 2 equivalence with the five-dimensional monopole model: the
    spectrum, the operator on r^j (j <= 3) and the centrifugal read-back,
    each an exact identity."""
    return [_tally(f"micz[{sb}]", spectral.micz_check(sb, i_max=20).identities)
            for sb in range(7)]


def metric(seed: int = SEED) -> list[CheckResult]:
    """At 1000 random points each: the Fubini-Study form is |W_perp|^2/|Z|^2,
    with W_perp the part of W orthogonal to the line Z H, formed by
    quaternion products; and the Sp(n) trace form is twice it."""
    from . import geom
    return [_resolved(f"{name}[n={n}]", sweep(n, 1000, seed), tol)
            for n in (2, 3, 4) for name, sweep, tol in (
                ("metric", geom.metric_sweep, 1e-12),
                ("quotient", geom.quotient_sweep, 1e-13))]


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
    # a phase planted at slot i (stack entry i) must land at the doubled
    # index, conjugated on the u-side embedding and plain on the uv-side
    phase = np.exp(0.7j)
    def planted(n: int):
        i = np.arange(2 * n)
        A = np.tile(np.eye(2 * n, dtype=complex), (2 * n, 1, 1))
        A[i, i, i] = phase
        ibar = np.array([geom.weight_double(j, n) - 1
                         for j in range(1, 2 * n + 1)])
        d = np.diagonal(geom.embed_u2n(A), axis1=1, axis2=2).copy()
        du = np.diagonal(geom.embed_u2n_uv(A), axis1=1, axis2=2)
        good = ((np.abs(d[i, ibar] - np.conj(phase)) < 1e-14)
                & (np.abs(du[i, ibar] - phase) < 1e-14))
        d[i, i] = d[i, ibar] = 1.0
        return good & np.all(np.abs(d - 1.0) < 1e-14, axis=1)
    rows.append(_tally("weight-double[n<=6]",
                       (ok for n in range(1, 7) for ok in planted(n))))
    return rows


def schur() -> list[CheckResult]:
    """Schur orthonormality of the Sp(1) characters up to weight 10,
    exactly."""
    rows = [row(f"schur-norm[{sb}]", lhs=norm, rhs=1, passed=norm == 1)
            for sb in range(11) for norm in [rep.schur_norm(sb)]]
    rows.append(_tally("schur-cross", (
        rep.character_inner(s1, s2) == 0
        for s1 in range(11) for s2 in range(s1 + 1, 11))))
    return rows


def orthogonality() -> list[CheckResult]:
    """The first six radial states of each channel sbar, l <= 2 at n = 2
    are orthogonal, with the closed-form norms: each Gram entry i <= j is
    one exact identity in ints (``radial.gram_identities``)."""
    from . import radial
    return [_tally("orthogonality[n=2]", (
        held for sb in range(3) for p in [spectral.ModelParams(2, sb)]
        for l in range(3) for held in radial.gram_identities(p, l, 6)))]


REGISTRY: dict[str, Callable[..., list[CheckResult]]] = {
    check.__name__.replace("_", "-"): check for check in (
        eigensolve, collapse, dim_equality, genfunc, dims, ktype_dims,
        casimir, residuals, twist, micz, metric, ostar, schur,
        orthogonality)}

SEEDED = frozenset(name for name, check in REGISTRY.items()
                   if check.__code__.co_argcount)  # they take ``seed``
