"""The acceptance criteria, each defined once.

``REGISTRY`` maps each ``verify`` name to its check, in criterion order:
criterion k is the k-th entry.  ``qkepler verify`` runs them (``all``
runs every entry in order and is the CI gate) and the acceptance tests
gate on them.  A check returns its ``CheckResult`` rows; it sweeps the
gate's ranges and holds its own bounds, so it takes no arguments, except
that the randomized check named in ``SEEDED``, ``metric``, takes
``seed``.  Every row is a counted identity, built by ``_tally``: exact,
in ints, ``Fraction``s or Gaussian integers, with no residual.  So no
check loads numpy, and a check imports ``radial``, ``qlinalg`` or
``geom`` only when it runs.  The geometry rows (``metric`` and
``ostar``) form every quaternion product from the integer table
``qlinalg.MUL`` that the float ``qmul`` also contracts.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Iterable

from . import rep, spectral
from .report import CheckResult, row

__all__ = ["REGISTRY", "SEEDED", "SEED", "EIGENSOLVE_TOL"]

SEED = 0  # the gate's seed for the randomized points of `metric`
# Laguerre-Galerkin levels, here and in `eigensolve`: a decimal rational,
# so the Sturm minors stay small; float(EIGENSOLVE_TOL) == 1e-10
EIGENSOLVE_TOL = Fraction(1, 10 ** 10)
METRIC_POINTS = 16  # seeded points per `metric` and `quotient` row
_BITS = 20  # their coordinates are drawn from [-2^_BITS, 2^_BITS)


def _tally(name: str, outcomes: Iterable[bool]) -> CheckResult:
    """The row of a counted identity: lhs of the rhs outcomes hold.

    It passes only when every outcome holds; an empty tally checked
    nothing, so it fails.
    """
    outcomes = [bool(ok) for ok in outcomes]
    held = sum(outcomes)
    return row(name, lhs=held, rhs=len(outcomes),
               passed=held == len(outcomes) > 0)


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
    return [_tally(f"eigensolve[n={n}]", (
        ok for sb in range(4) for p in [spectral.ModelParams(n, sb)]
        for l in range(3) for ok in certified(
            *radial.galerkin_channel(p, l, 3), EIGENSOLVE_TOL)))
        for n in (2, 3)]


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
    l, sbar <= 8.  And the infinitesimal character of the bound sector,
    for n <= 5 and sbar <= 6: lambda + rho(D_2n), with lambda the highest
    weight ``spectral.hspace_weight`` and rho = (2n - 1, ..., 1, 0), has
    a 0 entry and is (sbar + 1, 2n - 2, ..., 1, 0) up to order and signs,
    that is, up to W(D_2n), which may change any signs once one entry is
    0: the Sp(1) character sbar + 1 padded by the rho tail (Przebinda,
    Colloq. Math. 70, 1996)."""
    sp1 = [rep.casimir(rep.RootSystem("C", 1), rep.HighestWeight([sb]))
           for sb in range(9)]
    def character(n: int, sb: int) -> bool:
        # on doubled entries, as HighestWeight stores them
        twice = spectral.hspace_weight(spectral.ModelParams(n, sb)).twice
        shifted = [e + 2 * (2 * n - 1 - i) for i, e in enumerate(twice)]
        return 0 in shifted and (sorted(map(abs, shifted)) == sorted(
            [2 * (sb + 1), *range(0, 2 * (2 * n - 1), 2)]))
    rows = [_tally(f"casimir[n={n}]", (
        rep.angular_eigenvalue(n, sb, l)
        == 2 * (rep.casimir(cn, _r_l_weight(n, sb, l)) - sp1[sb])
        for l in range(9) for sb in range(9)))
        for n in range(2, 6) for cn in [rep.RootSystem("C", n)]]
    rows.append(_tally("inf-character[n<=5]", (
        character(n, sb) for n in range(2, 6) for sb in range(7))))
    return rows


def residuals() -> list[CheckResult]:
    """The Kepler and oscillator radial equations hold for the closed forms,
    exactly, on ints at m + 3 points (``radial.kepler_ode``), on the
    channel that ``radial.ode_channel`` reads from each state's table; a
    state with none fails.  Each distinct channel is checked once."""
    from . import radial
    def holds(once, s, coordinate: str) -> bool:
        channel = radial.ode_channel(s, coordinate)
        if channel is None:
            return False
        held, points = once(*channel)
        return held == points
    identities = (("kepler-ode", radial.kepler_ode, "t"),
                  ("oscillator-ode", radial.oscillator_ode, "oscillator"))
    return [_tally(f"{name}[n={n}]", (
        holds(once, s, coordinate) for s in _states(n)))
        for n in (2, 3) for name, ode, coordinate in identities
        for once in [functools.cache(ode)]]


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


def _conj(q: tuple) -> tuple:
    return (q[0], -q[1], -q[2], -q[3])


def _norm2(vector) -> int:
    """|V|^2 of a vector of quaternions, as a plain sum of squares."""
    return sum(x * x for q in vector for x in q)


def metric(seed: int = SEED) -> list[CheckResult]:
    """Two polynomial identities in ints, each at METRIC_POINTS seeded
    points whose coordinates are drawn from [-2^20, 2^20), with every
    quaternion product formed from ``qlinalg.MUL``.

    ``metric[n]``: the Fubini-Study form is |W_perp|^2/|Z|^2, with
    W_perp = W - Z q, q = conj(Z).W/|Z|^2, the part of W orthogonal to
    the line Z H; cleared of denominators, |(|Z|^2 W - Z (conj(Z).W))|^2
    = |Z|^2 (|Z|^2 |W|^2 - |conj(Z).W|^2).  ``quotient[n]``: the Sp(n)
    trace form Re tr(X_a^dag X_b) of X_a = [[0, -a^dag], [a, 0]] is
    twice the plain dot product of a and b in R^{4(n-1)}.  A false
    identity of degree d holds at one such point with probability at most
    d/2^21 (Schwartz, J. ACM 27, 1980), so a row of degree 6 passes a
    wrong product with probability at most (6/2^21)^16.
    """
    import random
    from .qlinalg import qmul_exact as mul
    rng = random.Random(seed)
    def draw(length: int) -> list[tuple]:
        return [tuple(rng.getrandbits(_BITS + 1) - 2 ** _BITS
                      for _ in range(4)) for _ in range(length)]
    def fubini_study(n: int) -> bool:
        Z, W = draw(n), draw(n)
        z2, w2 = _norm2(Z), _norm2(W)
        q = tuple(map(sum, zip(*(mul(_conj(z), w) for z, w in zip(Z, W)))))
        perp = [[z2 * x - y for x, y in zip(w, mul(z, q))]
                for z, w in zip(Z, W)]
        return _norm2(perp) == z2 * (z2 * w2 - _norm2([q]))
    def trace_form(n: int) -> bool:
        a, b = draw(n - 1), draw(n - 1)
        # the nonzero entries of X: the first row -a^dag, the first column a
        def bordered(v):
            return [tuple(-x for x in _conj(q)) for q in v] + v
        trace = sum(mul(_conj(x), y)[0]
                    for x, y in zip(bordered(a), bordered(b)))
        return trace == 2 * sum(x * y for p, q in zip(a, b)
                                for x, y in zip(p, q))
    return [_tally(f"{name}[n={n}]", [holds(n) for _ in range(METRIC_POINTS)])
            for n in (2, 3, 4) for name, holds in (
                ("metric", fubini_study), ("quotient", trace_form))]


def _product(A: dict, B: dict) -> dict:
    """The product of two sparse matrices {(row, column): entry}, with
    its zero entries dropped."""
    rows: dict = {}
    for (k, j), b in B.items():
        rows.setdefault(k, []).append((j, b))
    out: dict = {}
    for (i, k), a in A.items():
        for j, b in rows.get(k, ()):
            out[i, j] = out.get((i, j), 0) + a * b
    return {key: v for key, v in out.items() if v}


def _sum(A: dict, B: dict) -> dict:
    out = dict(A)
    for key, b in B.items():
        out[key] = out.get(key, 0) + b
    return {key: v for key, v in out.items() if v}


def _jmat(n: int) -> dict:
    """J = [[0, -I_n], [I_n, 0]], sparse."""
    return {**{(a, a + n): -1 for a in range(n)},
            **{(a + n, a): 1 for a in range(n)}}


def _lower_block(X: dict, n: int) -> dict:
    """-J conj(X) J: the lower block of the image diag(X, -J conj(X) J)
    of X in gl(2n, C) under the embedding of U(2n) into O*(4n), sparse."""
    J = _jmat(n)
    return {key: -v for key, v in
            _product(_product(J, {k: x.conjugate() for k, x in X.items()}),
                     J).items()}


def _image(X: dict, n: int) -> dict:
    """diag(X, -J conj(X) J), sparse, of order 4n."""
    m = 2 * n
    return {**X, **{(i + m, j + m): v
                    for (i, j), v in _lower_block(X, n).items()}}


def ostar() -> list[CheckResult]:
    """The image diag(X, -J conj(X) J) of each of the 4n^2 basis elements
    X of u(2n) (i E_aa, E_ab - E_ba and i (E_ab + E_ba); entries 0, +-1,
    +-i) satisfies both linearized O*(4n) relations, Y^dag eta + eta Y = 0
    and Y^T Omega + Omega Y = 0, for n = 2, 3.  The entries are Gaussian
    integers, held as ints and complex numbers with integer parts, small
    enough that every operation on them is exact.  By linearity that
    covers all of u(2n), and U(2n) is connected, so its image lies in
    O*(4n) (Sp(n) lands there as part of U(2n)).  The weight-doubling
    map, exhaustively for n <= 6: the unit i planted at slot a of the
    identity lands, conjugated, at the doubled slot, and the image is
    diagonal with 1 elsewhere."""
    from .geom import weight_double
    def in_ostar(n: int) -> Callable[[dict], bool]:
        m = 2 * n
        eta = {(a, a): 1 if a < m else -1 for a in range(2 * m)}
        J = _jmat(n)
        omega = {**{(i, j + m): v for (i, j), v in J.items()},
                 **{(i + m, j): -v for (i, j), v in J.items()}}
        def holds(Y: dict) -> bool:
            adjoint = {(j, i): v.conjugate() for (i, j), v in Y.items()}
            transpose = {(j, i): v for (i, j), v in Y.items()}
            return not (_sum(_product(adjoint, eta), _product(eta, Y)) or
                        _sum(_product(transpose, omega), _product(omega, Y)))
        return holds
    def basis(n: int):
        m = 2 * n
        for a in range(m):
            yield {(a, a): 1j}
            for b in range(a + 1, m):
                yield {(a, b): 1, (b, a): -1}
                yield {(a, b): 1j, (b, a): 1j}
    def planted(n: int, a: int) -> bool:
        A = {(b, b): 1j if b == a else 1 for b in range(2 * n)}
        ibar = weight_double(a + 1, n) - 1
        return _image(A, n) == {(b, b): 1j if b == a else -1j if b == ibar
                                else 1 for b in range(4 * n)}
    rows = [_tally(f"ostar[n={n}]", (holds(_image(X, n)) for X in basis(n)))
            for n in (2, 3) for holds in [in_ostar(n)]]
    rows.append(_tally("weight-double[n<=6]", (
        planted(n, a) for n in range(1, 7) for a in range(2 * n))))
    return rows


def schur() -> list[CheckResult]:
    """Schur orthonormality of the Sp(1) characters up to weight 10,
    exactly."""
    rows = [_tally(f"schur-norm[{sb}]", [rep.schur_norm(sb) == 1])
            for sb in range(11)]
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
                   if check.__code__.co_argcount)  # it takes ``seed``
