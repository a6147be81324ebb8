"""The index-doubling rule of the embedding U(2n) into O*(4n).

The gate checks the geometric identities exactly, in integers, in
``qkepler.checks``: the Fubini-Study metric of the Sp(1) quotient, its
quotient factor 2, and the embedding diag(A, -J conj(A) J) of U(2n)
into O*(4n), J = [[0, -I_n], [I_n, 0]].  The ``ostar`` rows read
``weight_double`` for where that embedding doubles a diagonal weight.
``import qkepler.geom`` loads no numpy.
"""

from __future__ import annotations

__all__ = ["weight_double"]


def weight_double(i: int, n: int) -> int:
    """The unique index i-bar > 2n with |i-bar - i - 2n| = n (indices 1-based).

    Encodes where the embedding U(2n) into U(4n) duplicates the i-th
    diagonal weight: the diagonal unit e_i of u(2n) maps to e_i - e_ibar
    in u(4n) under A -> diag(A, -J conj(A) J), and to e_i + e_ibar in
    the (U, conj(V)) frame, where the lower block is -J A J.
    """
    if not 1 <= i <= 2 * n:
        raise ValueError(f"index {i} out of range 1..{2 * n}")
    ibar = i + 3 * n if i <= n else i + n
    if abs(ibar - i - 2 * n) != n or ibar <= 2 * n:
        raise ArithmeticError(f"weight_double({i}, {n}) = {ibar} is off "
                              f"|i-bar - i - 2n| = n, i-bar > 2n")
    return ibar
