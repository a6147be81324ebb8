"""Exact representation theory: Weyl dimensions, Casimirs, Sp(1) characters.

Root systems are handled through their positive roots in orthonormal
e_i coordinates:

    A_m : e_i - e_j (i < j), weights live in m+1 coordinates;
    C_m : e_i - e_j, e_i + e_j (i < j), and 2 e_i, weights in m coordinates.

Half-integer weight entries are stored as doubled integers, and all
dimension and Casimir arithmetic runs on them and on the doubled rho in
exact integers, with one division at the end.  The Casimir
normalization is the plain dot product in the e_i coordinates; for C_n
this gives sum_i lam_i (lam_i + 2(n+1-i)), and for sp(1) = C_1 the
familiar sigma(sigma + 2).

The character of an Sp(1) irrep is its weight multiset, a Laurent
polynomial in the torus coordinate z, and class integration is the
constant term against the Weyl density; ``laurent`` loads only where a
character is built.  Everything here is exact, and nothing imports numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

if TYPE_CHECKING:
    from .laurent import Laurent

__all__ = [
    "RootSystem",
    "HighestWeight",
    "weyl_dim",
    "casimir",
    "dim_R_l",
    "angular_eigenvalue",
    "sp1_character",
    "schur_norm",
    "character_inner",
]

WeightEntry = Union[int, Fraction]


class _HighestWeight(NamedTuple):
    twice: tuple[int, ...]


class HighestWeight(_HighestWeight):
    """A weight vector with integer or half-integer entries, stored as
    doubled integers; ``entries`` gives them back as Fractions."""

    __slots__ = ()

    def __new__(cls, entries: Sequence[WeightEntry]) -> HighestWeight:
        doubled = []
        for e in entries:
            if isinstance(e, int):
                doubled.append(2 * e)
                continue
            d = 2 * Fraction(e)
            if d.denominator != 1:
                raise ValueError(f"entry {e} is not a half integer")
            doubled.append(int(d))
        return super().__new__(cls, tuple(doubled))

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(t, 2) for t in self.twice)

    def __str__(self) -> str:
        """The entries, as `qkepler ktype` prints them: (3/2,1/2,0)."""
        return "(" + ",".join(map(str, self.entries)) + ")"

    def conjugate(self) -> HighestWeight:
        """Reverse the entries and negate them (the dual highest weight)."""
        return self._make((tuple(-t for t in reversed(self.twice)),))


class _RootSystem(NamedTuple):
    family: str
    rank: int


class RootSystem(_RootSystem):
    """A classical root system of family A or C with the given rank."""

    __slots__ = ()

    def __new__(cls, family: str, rank: int) -> RootSystem:
        if family not in ("A", "C"):
            raise ValueError(f"unsupported family {family!r}")
        if rank < 1:
            raise ValueError("rank must be positive")
        return super().__new__(cls, family, rank)

    @property
    def weight_length(self) -> int:
        """Number of e_i coordinates: rank+1 for A, rank for C."""
        return self.rank + 1 if self.family == "A" else self.rank

    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        n = self.weight_length
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                r = [0] * n
                r[i], r[j] = 1, -1
                roots.append(tuple(r))
        if self.family == "C":
            for i in range(n):
                for j in range(i + 1, n):
                    r = [0] * n
                    r[i], r[j] = 1, 1
                    roots.append(tuple(r))
            for i in range(n):
                r = [0] * n
                r[i] = 2
                roots.append(tuple(r))
        return tuple(roots)

    def rho_twice(self) -> tuple[int, ...]:
        """Twice rho, half the sum of the positive roots: n-1-2i over the
        n = rank+1 coordinates of A, and 2(n-i) for C_n (i from 0)."""
        n = self.weight_length
        if self.family == "A":
            return tuple(n - 1 - 2 * i for i in range(n))
        return tuple(2 * (n - i) for i in range(n))

    def rho(self) -> tuple[Fraction, ...]:
        """Half the sum of the positive roots."""
        return tuple(Fraction(r, 2) for r in self.rho_twice())

    def is_dominant(self, hw: HighestWeight) -> bool:
        tw = hw.twice
        return (len(tw) == self.weight_length
                and all(a >= b for a, b in zip(tw, tw[1:]))
                and (self.family == "A" or tw[-1] >= 0))


def _dominant_rho_twice(rs: RootSystem, hw: HighestWeight) -> tuple[int, ...]:
    """Twice the rho of ``rs``, once ``hw`` is dominant for it."""
    if not rs.is_dominant(hw):
        raise ValueError(f"weight {hw} is not dominant for {rs}")
    return rs.rho_twice()


def weyl_dim(rs: RootSystem, hw: HighestWeight) -> int:
    """Exact Weyl dimension prod_{alpha>0} <lam+rho, alpha> / <rho, alpha>.

    Both products run over doubled integers, v = 2(lam+rho) against 2 rho:
    v_i - v_j for i < j, and for C also v_i + v_j and v_i (the long
    roots 2e_i).  One exact division ends it.
    """
    rho = _dominant_rho_twice(rs, hw)
    v = [a + b for a, b in zip(hw.twice, rho)]
    num = den = 1
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            num *= v[i] - v[j]
            den *= rho[i] - rho[j]
            if rs.family == "C":
                num *= v[i] + v[j]
                den *= rho[i] + rho[j]
        if rs.family == "C":
            num *= v[i]
            den *= rho[i]
    out, rem = divmod(num, den)
    if rem or out <= 0:
        raise ArithmeticError(
            f"Weyl product is not a positive integer: {Fraction(num, den)}")
    return out


def casimir(rs: RootSystem, hw: HighestWeight) -> Fraction:
    """The quadratic Casimir eigenvalue <lam, lam + 2 rho> in e_i coordinates."""
    rho = _dominant_rho_twice(rs, hw)
    return Fraction(sum(a * (a + 2 * r) for a, r in zip(hw.twice, rho)), 4)


def dim_R_l(n: int, sigma_bar: int, l: int) -> int:
    """Dimension of the l-th Sp(n) constituent for twist parameter sigma_bar.

    Evaluates the closed form

        (1+p-q)/(1+p) * (1 + (p+q)/(2n-1)) * C(p+2n-2, p) * C(q+2n-3, q)

    with p = l + sigma_bar and q = l, in integers: the numerator
    (1+p-q)(2n-1+p+q) C(p+2n-2, p) C(q+2n-3, q) and one exact division by
    (1+p)(2n-1).  Equals the Weyl dimension of the C_n highest weight
    (l+sigma_bar, l, 0, ..., 0).
    """
    if n < 2 or sigma_bar < 0 or l < 0:
        raise ValueError("need n >= 2, sigma_bar >= 0, l >= 0")
    p, q = l + sigma_bar, l
    num = ((1 + p - q) * (2 * n - 1 + p + q)
           * math.comb(p + 2 * n - 2, p) * math.comb(q + 2 * n - 3, q))
    den = (1 + p) * (2 * n - 1)
    out, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"dim R_l product is not an integer: {Fraction(num, den)}")
    return out


def angular_eigenvalue(n: int, sigma_bar: int, l: int) -> int:
    """Eigenvalue of the twisted Laplacian on the l-th constituent.

    With L = l + sigma_bar/2 this is 4 L^2 + 4(2n-1) L - sigma_bar(sigma_bar+2),
    and it coincides with twice the Casimir difference
    casimir(C_n, (l+sigma_bar, l, 0, ...)) - casimir(C_1, (sigma_bar)).
    """
    if n < 2 or sigma_bar < 0 or l < 0:
        raise ValueError("need n >= 2, sigma_bar >= 0, l >= 0")
    two_L = 2 * l + sigma_bar
    val = two_L * two_L + 2 * (2 * n - 1) * two_L - sigma_bar * (sigma_bar + 2)
    return val


def sp1_character(sigma_bar: int) -> Laurent:
    """Character of the (s+1)-dimensional irrep at diag(z, 1/z): its
    weights, sum over j <= s of z^(s-2j).  At z = e^(i theta) this is
    sin((s+1) theta)/sin(theta)."""
    from .laurent import Laurent
    if sigma_bar < 0:
        raise ValueError("sigma_bar must be >= 0")
    return Laurent({sigma_bar - 2 * j: 1 for j in range(sigma_bar + 1)})


# |z - 1/z|^2 on |z| = 1: twice the Weyl density of Sp(1) on its torus, as
# the terms of a Laurent polynomial
_WEYL_DENSITY = {0: 2, 2: -1, -2: -1}


def character_inner(sigma_bar_1: int,
                    sigma_bar_2: int) -> Union[int, Fraction]:
    """Class-measure inner product of two Sp(1) characters, exactly.

    By the Weyl integration formula it is CT[chi_1 chi_2 (2 - z^2 -
    z^-2)] / 2, CT the constant term, a Fraction where CT is odd.
    Equals 1 when the labels agree and 0 otherwise (Schur orthogonality).
    """
    from .laurent import Laurent
    ct = (sp1_character(sigma_bar_1) * sp1_character(sigma_bar_2)
          * Laurent(_WEYL_DENSITY)).coefficient(0)
    return Fraction(ct, 2) if ct % 2 else ct // 2


def schur_norm(sigma_bar: int) -> Union[int, Fraction]:
    """Squared norm of an irreducible Sp(1) character: 1 for every irrep."""
    return character_inner(sigma_bar, sigma_bar)
