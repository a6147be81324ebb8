"""Bound-state spectra, degeneracies and weight bookkeeping.

Energies are exact rationals throughout; callers convert to float at the
boundary.  The principal quantum number is I = k - 1 + l, and the level
energy for parameters (n, sigma_bar) is

    E_I = -(1/2) / (I + n + sigma_bar/2)^2.

The degeneracy of level I sums the closed-form dimensions over l <= I.
Two exact identities tie these numbers to the 4n-dimensional isotropic
oscillator: the levelwise dimension equality and its generating-function
form.  Both read the same level sum (``_level_sum``) against the same
binomial (``oscillator_level_dim``); only the generating function's
exact series inversion is a second route to the oscillator side.  At
n = 2 the spectrum and the radial operator are those of the generalized
MICZ-Kepler problem in dimension five, checked in exact
Laurent-polynomial arithmetic.

``rep`` loads where weights and dimensions are built, and ``laurent``
where the MICZ operators are, so an energy table loads neither.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    from .laurent import Laurent
    from .rep import HighestWeight

__all__ = [
    "ModelParams",
    "energy",
    "energy_kl",
    "degeneracy",
    "oscillator_level_dim",
    "EqualityCheck",
    "dimension_equality_check",
    "GenfuncCheck",
    "genfunc_check",
    "ktype_weight",
    "hspace_weight",
    "KtypeCheck",
    "ktype_dim_check",
    "MiczReport",
    "micz_check",
]


class _ModelParams(NamedTuple):
    n: int
    sigma_bar: int


class ModelParams(_ModelParams):
    """The pair (n, sigma_bar) fixing one model; requires n >= 2."""

    __slots__ = ()

    def __new__(cls, n: int, sigma_bar: int) -> ModelParams:
        if n < 2:
            raise ValueError("n must be >= 2")
        if sigma_bar < 0:
            raise ValueError("sigma_bar must be >= 0")
        return super().__new__(cls, n, sigma_bar)


def energy(p: ModelParams, I: int) -> Fraction:
    """Exact level energy -(1/2)/(I + n + sigma_bar/2)^2 for I >= 0."""
    if I < 0:
        raise ValueError("I must be >= 0")
    denom = 2 * I + 2 * p.n + p.sigma_bar  # twice the effective quantum number
    return Fraction(-2, denom * denom)


def energy_kl(p: ModelParams, k: int, l: int) -> Fraction:
    """Energy in (k, l) labels, radial number k >= 1 and angular number
    l >= 0: -(1/2)/(k + l + (sigma_bar + 2n)/2 - 1)^2.

    Depends on (k, l) only through k + l, which is the eigenvalue collapse
    that makes the levels (I + 1)-fold degenerate across channels.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if l < 0:
        raise ValueError("l must be >= 0")
    denom = 2 * k + 2 * l + p.sigma_bar + 2 * p.n - 2
    return Fraction(-2, denom * denom)


def _degeneracies(p: ModelParams, count: int) -> list[int]:
    """degeneracy(p, I) for I < ``count``: running sums over l of dim_R_l."""
    from .rep import dim_R_l
    return list(itertools.accumulate(
        dim_R_l(p.n, p.sigma_bar, l) for l in range(count)))


def degeneracy(p: ModelParams, I: int) -> int:
    """Exact dimension of the I-th eigenspace: sum over l <= I of dim_R_l."""
    if I < 0:
        raise ValueError("I must be >= 0")
    return _degeneracies(p, I + 1)[-1]


def oscillator_level_dim(n: int, k: int) -> int:
    """Dimension C(4n+k-1, 4n-1) of level k of the 4n-dimensional oscillator."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return math.comb(4 * n + k - 1, 4 * n - 1)


class EqualityCheck(NamedTuple):
    lhs: int
    rhs: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def _level_sum(k: int, degeneracies: Callable[[int], list[int]]) -> int:
    """Sum over 2I + sigma_bar = k of (sigma_bar+1)*degeneracy, where
    ``degeneracies(sigma_bar)[I]`` is the degeneracy of level I."""
    return sum((k - 2 * I + 1) * degeneracies(k - 2 * I)[I]
               for I in range(k // 2 + 1))


def dimension_equality_check(n: int, k: int) -> EqualityCheck:
    """Compare sum over 2I + sigma_bar = k of (sigma_bar+1)*degeneracy with
    the oscillator level dimension.  Exact on both sides."""
    lhs = _level_sum(k, lambda sb: _degeneracies(ModelParams(n, sb),
                                                 (k - sb) // 2 + 1))
    return EqualityCheck(lhs=lhs, rhs=oscillator_level_dim(n, k))


def _series_inverse_one_minus_t_pow(m: int, K: int) -> list[int]:
    """Coefficients of (1 - t)^(-m) up to t^K by exact series inversion.

    Builds (1 - t)^m by repeated polynomial multiplication and inverts the
    series, avoiding binomial coefficients on purpose so the result is an
    independent route to the same numbers.
    """
    poly = [1]
    for _ in range(m):
        poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
    inv = [1]
    for k in range(1, K + 1):
        acc = 0
        for j in range(1, min(k, len(poly) - 1) + 1):
            acc += poly[j] * inv[k - j]
        inv.append(-acc)
    return inv


class GenfuncCheck(NamedTuple):
    coefficients: tuple[int, ...]  # enumerated left-hand side, degree 0..K
    binomial: tuple[int, ...]      # C(4n+k-1, 4n-1)
    inverted: tuple[int, ...]      # series coefficients of (1-t)^(-4n)

    @property
    def passed(self) -> bool:
        return self.coefficients == self.binomial == self.inverted


def genfunc_check(n: int, K: int) -> GenfuncCheck:
    """Verify that the degeneracy generating function equals (1 - t)^(-4n).

    The left-hand coefficients are enumerated levelwise, from one running
    degeneracy sum per sigma_bar, so the work is linear in the number of
    levels; the reference is computed twice, from binomials and from
    exact series inversion.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    table = [_degeneracies(ModelParams(n, sb), (K - sb) // 2 + 1)
             for sb in range(K + 1)]
    coeffs = tuple(_level_sum(k, table.__getitem__) for k in range(K + 1))
    binom = tuple(oscillator_level_dim(n, k) for k in range(K + 1))
    inverted = tuple(_series_inverse_one_minus_t_pow(4 * n, K))
    return GenfuncCheck(coefficients=coeffs, binomial=binom, inverted=inverted)


def ktype_weight(p: ModelParams, I: int) -> HighestWeight:
    """Highest weight (-1, ..., -1, -(1+I), -(1+I+sigma_bar)) of length 2n.

    Minus the entry sum equals 2I + sigma_bar + 2n, the oscillator level
    matched by the twist; that equality is what forces the half-integer
    twist parameter kappa to be 1.
    """
    from .rep import HighestWeight
    if I < 0:
        raise ValueError("I must be >= 0")
    entries = [-1] * (2 * p.n - 2) + [-(1 + I), -(1 + I + p.sigma_bar)]
    return HighestWeight(entries)


def hspace_weight(p: ModelParams) -> HighestWeight:
    """Highest weight (-1, ..., -1, -(1+sigma_bar)) of the full bound sector."""
    from .rep import HighestWeight
    return HighestWeight([-1] * (2 * p.n - 1) + [-(1 + p.sigma_bar)])


class KtypeCheck(NamedTuple):
    u2n_dim: int
    sp_sum: int

    @property
    def passed(self) -> bool:
        return self.u2n_dim == self.sp_sum


def ktype_dim_check(p: ModelParams, I: int) -> KtypeCheck:
    """Dimension match between the level-I weight module and the Sp(n) sum."""
    from .rep import RootSystem, weyl_dim
    u2n = weyl_dim(RootSystem("A", 2 * p.n - 1), ktype_weight(p, I))
    return KtypeCheck(u2n_dim=u2n, sp_sum=degeneracy(p, I))


# the constant that conjugation by rho^(3/2) adds to the centrifugal term
_MICZ_SHIFT = Fraction(27, 4)


def _micz_transformed(phi: Laurent, sigma_bar: int) -> Laurent:
    """The n = 2 radial operator in rho, conjugated by rho^(3/2), on Phi(r)
    at r = rho^2, with g(rho) = rho^(3/2) Phi(rho^2):

        -(g'' + 4 g'/rho) / (8 rho^(7/2))
        + (sigma_bar(sigma_bar+2) + 27/4) Phi / (8 rho^4) - Phi / rho^2.
    """
    from .laurent import Laurent
    rho = Laurent.monomial
    Phi = phi.at_power(2)
    g1 = (rho(Fraction(3, 2)) * Phi).derivative()
    kinetic = (g1.derivative() + 4 * rho(-1) * g1) * rho(Fraction(-7, 2))
    centrifugal = (sigma_bar * (sigma_bar + 2) + _MICZ_SHIFT) / 8
    return (Fraction(-1, 8) * kinetic + centrifugal * rho(-4) * Phi
            - rho(-2) * Phi)


def _micz_radial(phi: Laurent, sigma_bar: int) -> Laurent:
    """The radial operator of the five-dimensional problem with magnetic
    charge sigma_bar/2, on Phi(r):

        -(Phi'' + 4 Phi'/r)/2 + sigma_bar(sigma_bar+2) Phi/(8 r^2) - Phi/r.
    """
    from .laurent import Laurent
    r = Laurent.monomial
    d1 = phi.derivative()
    return (Fraction(-1, 2) * (d1.derivative() + 4 * r(-1) * d1)
            + Fraction(sigma_bar * (sigma_bar + 2), 8) * r(-2) * phi
            - r(-1) * phi)


class MiczReport(NamedTuple):
    sigma_bar: int
    spectrum_exact: bool
    operator_exact: tuple[bool, ...]  # on Phi = r^j, j = 0, 1, 2, 3
    centrifugal: Fraction

    @property
    def charge_term(self) -> Fraction:
        """mu^2 + mu for the magnetic charge mu = sigma_bar/2."""
        mu = Fraction(self.sigma_bar, 2)
        return mu * mu + mu

    @property
    def identities(self) -> tuple[bool, ...]:
        return (self.spectrum_exact, *self.operator_exact,
                self.centrifugal == self.charge_term)


def micz_check(sigma_bar: int, i_max: int = 20) -> MiczReport:
    """Equivalence of the n = 2 model with the dimension-five problem.

    (i) spectrum: for magnetic charge mu = sigma_bar/2 the energies
        -(1/2)/(I + 2 + mu)^2 agree with :func:`energy` at n = 2, as
        rationals, for all I <= i_max;

    (ii) operator: the transformed operator equals the five-dimensional
        one at r = rho^2, as Laurent polynomials in rho, on Phi = r^j
        for j <= 3.  A linear second-order operator is fixed by its
        values on 1, r and r^2, so this is the identity for every Phi.

    The report also reads back twice the r^-2 coefficient of the
    transformed operator on Phi = 1, which is mu^2 + mu.
    """
    from .laurent import Laurent
    if sigma_bar < 0:
        raise ValueError("sigma_bar must be >= 0")
    p = ModelParams(2, sigma_bar)
    mu = Fraction(sigma_bar, 2)
    spectrum_exact = all(
        energy(p, I) == Fraction(-1, 2) / (I + 2 + mu) ** 2
        for I in range(i_max + 1))
    transformed = [_micz_transformed(Laurent.monomial(j), sigma_bar)
                   for j in range(4)]
    operator_exact = tuple(
        t == _micz_radial(Laurent.monomial(j), sigma_bar).at_power(2)
        for j, t in enumerate(transformed))
    centrifugal = 2 * transformed[0].coefficient(-4)
    return MiczReport(sigma_bar=sigma_bar, spectrum_exact=spectrum_exact,
                      operator_exact=operator_exact, centrifugal=centrifugal)
