"""Quaternion arithmetic: one integer product table, on exact numbers and
on float arrays.

The product is written once, as the integer structure constants ``MUL``:
the k-th component of e_r e_s, for the units e = (1, i, j, k), is
``MUL[r][s][k]``.  ``qmul_exact`` contracts that table on Python ints
(or ``Fraction``s) and the float kernel ``qmul`` on arrays, so the exact
checks of ``qkepler.checks`` and the float routes read the same product,
and a fault in the table reaches both.

A quaternion q = w + x i + y j + z k is stored as the components
(w, x, y, z): 4 exact numbers for ``qmul_exact``, or the last axis of a
float array for ``qmul`` and ``qconj``, which broadcast over leading
batch axes.

The sign convention for the imaginary units is fixed globally to

    i j = -k,   j k = -i,   k i = -j,

i.e. the opposite of the classical Hamilton table.  Splitting a
quaternion as q = z' + j z'' with complex z' = w + x i and z'' = y + z i
identifies H^n with C^{2n} via the stacked column (z'_1..z'_n,
z''_1..z''_n).  Under this identification, right multiplication by i
acts as the complex scalar i, and right multiplication by j acts as
Z |-> J conj(Z) with J the block matrix [[0, -I_n], [I_n, 0]].  Left
multiplication by a matrix of Sp(n) commutes with both and keeps the
norm, so Sp(n) sits inside U(2n).  The O*(4n) rows of
``qkepler.checks.ostar`` assume the convention and the splitting, so
neither may change in isolation.

``QMatrix`` is a thin wrapper over an (m, n, 4) array whose methods take
and return arrays.  The array routes import numpy when they run, so
``import qkepler.qlinalg`` loads no numpy, and neither does
``qmul_exact``.
"""

from __future__ import annotations

import functools
from typing import Iterable

__all__ = [
    "MUL",
    "QMatrix",
    "qmul",
    "qmul_exact",
    "qconj",
]

# MUL[r][s]: the components of e_r e_s for the units e = (1, i, j, k),
# under i j = -k; one row of four per r, in the order e_s = 1, i, j, k
MUL = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),  # 1, i, j, k
    ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),  # i, -1, -k, j
    ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)),  # j, k, -1, -i
    ((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0)),  # k, -j, i, -1
)


@functools.cache
def _terms(table) -> tuple:
    """Per component k, the terms (r, s, c) with c = table[r][s][k] nonzero:
    those with a real factor first, then by r.  That is the order in which
    the float product was first written out by hand, so its sums keep
    their bits."""
    return tuple(tuple(sorted(
        ((r, s, row[k]) for r, rows in enumerate(table)
         for s, row in enumerate(rows) if row[k]),
        key=lambda t: (bool(t[0] and t[1]), t[0]))) for k in range(4))


def _contract(terms, a, b):
    """sum c a[r] b[s] over ``terms`` in order, on numbers or arrays.  The
    first term starts the sum, and c = -1 negates exactly, so a float
    component is the hand-written sum to the bit, signed zeros included."""
    total = None
    for r, s, c in terms:
        term = c * a[r] * b[s]
        total = term if total is None else total + term
    return total


def qmul_exact(a, b) -> tuple:
    """The product a*b of two quaternions given as 4 exact numbers each
    (ints or ``Fraction``s), contracted from ``MUL``."""
    return tuple([_contract(terms, a, b) for terms in _terms(MUL)])


def qmul(a, b) -> np.ndarray:
    """Products a*b under the i j = -k convention, broadcast over batches,
    contracted from ``MUL``.

    Componentwise this is the Hamilton product with the factors swapped;
    |a*b| = |a| |b| holds either way.
    """
    import numpy as np
    a = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    b = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack([_contract(terms, a, b) for terms in _terms(MUL)],
                    axis=-1)


def qconj(q) -> np.ndarray:
    """Quaternion conjugates: the imaginary components change sign."""
    import numpy as np
    q = np.asarray(q, dtype=float)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


class QMatrix:
    """A rectangular matrix of quaternions over an (m, n, 4) array.

    Entries, traces and ``apply`` results are plain arrays.  Nothing in
    the package reads this class; it stays until the benchmark's tracer
    stops reading ``QMatrix.__matmul__`` (ROADMAP item 1).
    """

    def __init__(self, rows: Iterable[Iterable]):
        import numpy as np
        rows = [[np.asarray(q, dtype=float) for q in r] for r in rows]
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.array = np.array(rows, dtype=float).reshape(
            len(rows), len(rows[0]) if rows else 0, 4)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.array.astype(dtype or float)

    @property
    def shape(self) -> tuple[int, int]:
        return self.array.shape[:2]

    def __getitem__(self, idx: tuple[int, int]) -> np.ndarray:
        return self.array[idx].copy()

    def dagger(self) -> "QMatrix":
        return QMatrix(qconj(self.array).swapaxes(0, 1))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        return QMatrix(sum(qmul(self.array[:, t, None], other.array[None, t])
                           for t in range(self.shape[1])))

    def apply(self, v) -> np.ndarray:
        """The product M v for an (n, 4) vector v, as an (m, 4) array."""
        import numpy as np
        v = np.asarray(v, dtype=float)
        if self.shape[1] != len(v):
            raise ValueError("shape mismatch")
        return (self @ QMatrix(v[:, None])).array[:, 0]

    def trace(self) -> np.ndarray:
        if self.shape[0] != self.shape[1]:
            raise ValueError("trace of a non-square matrix")
        return self.array.diagonal().sum(axis=-1)

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix.diag([(1.0, 0.0, 0.0, 0.0)] * n)

    @staticmethod
    def diag(entries) -> "QMatrix":
        """The diagonal matrix of an (n, 4) array of entries."""
        import numpy as np
        es = np.asarray(entries, dtype=float).reshape(-1, 4)
        out = np.zeros((len(es), len(es), 4))
        out[range(len(es)), range(len(es))] = es
        return QMatrix(out)
