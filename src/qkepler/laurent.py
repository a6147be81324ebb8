"""Exact Laurent polynomials with rational exponents, for the n = 2 MICZ
operator identity and the Sp(1) Schur orthonormality.

A polynomial is a dict from exponent to coefficient (ints or Fractions)
with no zero terms, so two polynomials are equal exactly when their
dicts are."""

from __future__ import annotations

from fractions import Fraction
from typing import Union

__all__ = ["Laurent"]

Rational = Union[int, Fraction]


class Laurent:
    """A finite sum of c z^e, held as ``terms = {e: c}``."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def monomial(e: Rational) -> "Laurent":
        return Laurent({e: 1})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Laurent) and self.terms == other.terms

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + -1 * other

    def __mul__(self, other: Union["Laurent", Rational]) -> "Laurent":
        if not isinstance(other, Laurent):  # a rational scalar
            return Laurent({e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return Laurent(out)

    __rmul__ = __mul__

    def derivative(self) -> "Laurent":
        return Laurent({e - 1: c * e for e, c in self.terms.items()})

    def at_power(self, k: Rational) -> "Laurent":
        """The polynomial p(z^k)."""
        return Laurent({e * k: c for e, c in self.terms.items()})

    def coefficient(self, e: Rational) -> Rational:
        return self.terms.get(e, 0)
