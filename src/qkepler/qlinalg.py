"""Quaternion arithmetic on float arrays, and the complex image.

A quaternion q = w + x i + y j + z k is stored as the float components
(w, x, y, z) on the last axis of an array, so one quaternion has shape
(4,), a vector of H^n has shape (n, 4) and an n x n matrix has shape
(n, n, 4).  Leading axes are batch axes: the kernels ``qmul``, ``qconj``,
``qnorm2`` and ``qdot`` broadcast over them, so a sweep over samples is a
handful of array operations rather than a loop over quaternion objects.

The sign convention for the imaginary units is fixed globally to

    i j = -k,   j k = -i,   k i = -j,

i.e. the opposite of the classical Hamilton table.  Everything downstream
(complexification, the symplectic-group checks, the O*(4n) matrix
identities) assumes this convention, so it must not be changed in
isolation.

Splitting a quaternion as q = z' + j z'' with complex z' = w + x i and
z'' = y + z i identifies H^n with C^{2n} via the stacked column
(z'_1..z'_n, z''_1..z''_n).  Under this identification, right
multiplication by i acts as the complex scalar i, and right multiplication
by j acts as Z |-> J conj(Z) with J the block matrix [[0, -I_n], [I_n, 0]].
A quaternion matrix M = A + j B acts on that column as the 2n x 2n complex
matrix [[A, -conj(B)], [B, conj(A)]], its complex image.  The image is
multiplicative, so group elements of Sp(n) are handled as their images:
products are complex matmuls and Sp(n) is the image's unitary part.

Arrays are the only representation of quaternions; ``QMatrix`` is a
thin wrapper over an (m, n, 4) array whose methods take and return
arrays.  All components are 64-bit floats; the geometric checks built
on top are residual based, so no exact quaternion arithmetic is
provided.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "QMatrix",
    "qmul",
    "qconj",
    "qnorm2",
    "qdot",
    "is_symplectic",
    "complexify",
    "complexify_matrix",
]


def qmul(a, b) -> np.ndarray:
    """Products a*b under the i j = -k convention, broadcast over batches.

    Componentwise this is the Hamilton product with the factors swapped;
    |a*b| = |a| |b| holds either way.
    """
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw - ay * bz + az * by,
        aw * by + ay * bw + ax * bz - az * bx,
        aw * bz + az * bw - ax * by + ay * bx,
    ], axis=-1)


def qconj(q) -> np.ndarray:
    """Quaternion conjugates: the imaginary components change sign."""
    q = np.asarray(q, dtype=float)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def qnorm2(q) -> np.ndarray:
    """Squared norms w^2 + x^2 + y^2 + z^2 over the last axis."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return w * w + x * x + y * y + z * z


def qdot(Z, W) -> np.ndarray:
    """Hermitian pairing conj(Z) . W = sum_i conj(Z_i) W_i.

    Z and W are (..., n, 4); the sum runs over the slot axis, the
    second-to-last, in slot order.  ``qdot(Z, Z)[..., 0]`` is |Z|^2.
    """
    Z, W = np.asarray(Z, dtype=float), np.asarray(W, dtype=float)
    if Z.shape[-2] != W.shape[-2]:
        raise ValueError(f"length mismatch: {Z.shape[-2]} vs {W.shape[-2]}")
    acc = np.zeros(np.broadcast_shapes(Z.shape[:-2], W.shape[:-2]) + (4,))
    for i in range(Z.shape[-2]):
        acc = acc + qmul(qconj(Z[..., i, :]), W[..., i, :])
    return acc


def complexify(Z) -> np.ndarray:
    """Stack the splitting q = z' + j z'' of (..., n, 4) into (..., 2n) complex.

    Right multiplication by i becomes the scalar i; right multiplication
    by j becomes J conj(.) with J = [[0, -I_n], [I_n, 0]].
    """
    Z = np.asarray(Z, dtype=float)
    return np.concatenate([Z[..., 0] + 1j * Z[..., 1],
                           Z[..., 2] + 1j * Z[..., 3]], axis=-1)


def complexify_matrix(M) -> np.ndarray:
    """The complex images (..., 2n, 2n) of square quaternion matrices (..., n, n, 4).

    Writing M = A + j B with complex matrices A, B, the left action on
    z' + j z'' corresponds to the block matrix [[A, -conj(B)], [B, conj(A)]].
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 3 or M.shape[-3] != M.shape[-2]:
        raise ValueError("matrix must be square")
    n = M.shape[-2]
    A = M[..., 0] + 1j * M[..., 1]
    B = M[..., 2] + 1j * M[..., 3]
    C = np.empty(M.shape[:-3] + (2 * n, 2 * n), dtype=complex)
    C[..., :n, :n], C[..., :n, n:] = A, -B.conj()
    C[..., n:, :n], C[..., n:, n:] = B, A.conj()
    return C


def is_symplectic(C, tol: float = 1e-12):
    """True iff the complex image C of order 2n lies in Sp(n) up to ``tol``.

    Sp(n) is the unitary part of the image: C^dag C = I, and C keeps the
    block form [[A, -conj(B)], [B, conj(A)]] that commutes with right
    multiplication by j.  Both are tested in max entry magnitude; a batch
    (..., 2n, 2n) gives one verdict per matrix.
    """
    C = np.asarray(C, dtype=complex)
    if C.ndim < 2 or C.shape[-1] != C.shape[-2] or C.shape[-1] % 2:
        raise ValueError("expected a square complex image of even order")
    n = C.shape[-1] // 2
    unitary = np.abs(C.conj().swapaxes(-1, -2) @ C - np.eye(2 * n))
    block = np.maximum(np.abs(C[..., :n, :n] - C[..., n:, n:].conj()),
                       np.abs(C[..., :n, n:] + C[..., n:, :n].conj()))
    return np.maximum(unitary.max(axis=(-2, -1)),
                      block.max(axis=(-2, -1))) <= tol


class QMatrix:
    """A rectangular matrix of quaternions over an (m, n, 4) array.

    Entries, traces and ``apply`` results are plain arrays.  Nothing in
    the package reads this class; it stays until the benchmark's tracer
    stops reading ``QMatrix.__matmul__`` (ROADMAP item 1).
    """

    def __init__(self, rows: Iterable[Iterable]):
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
        return QMatrix.diag(np.eye(4)[[0] * n])

    @staticmethod
    def diag(entries) -> "QMatrix":
        """The diagonal matrix of an (n, 4) array of entries."""
        es = np.asarray(entries, dtype=float).reshape(-1, 4)
        out = np.zeros((len(es), len(es), 4))
        out[range(len(es)), range(len(es))] = es
        return QMatrix(out)
