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

``Quaternion``, ``QVector`` and ``QMatrix`` are thin object wrappers over
the same arrays; their arithmetic calls the kernels.  All components are
64-bit floats; the geometric checks built on top are residual based, so
no exact quaternion arithmetic is provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Quaternion",
    "QVector",
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


@dataclass(frozen=True)
class Quaternion:
    """One quaternion w + x i + y j + z k with float components."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=dtype)

    @staticmethod
    def of(q) -> "Quaternion":
        return Quaternion(*np.asarray(q, dtype=float).tolist())

    def conj(self) -> "Quaternion":
        return Quaternion.of(qconj(self))

    def norm2(self) -> float:
        return float(qnorm2(self))

    def __abs__(self) -> float:
        return math.sqrt(self.norm2())

    def im_norm2(self) -> float:
        """Squared norm of the imaginary part."""
        return float(qnorm2((0.0, self.x, self.y, self.z)))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion.of(np.add(self, other))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion.of(np.subtract(self, other))

    def __neg__(self) -> "Quaternion":
        return Quaternion.of(np.negative(self))

    def __mul__(self, other) -> "Quaternion":
        if isinstance(other, Quaternion):
            return Quaternion.of(qmul(self, other))
        return Quaternion.of(np.multiply(self, other))

    __rmul__ = __mul__  # only reached for real scalars, which commute

    def to_complex_pair(self) -> tuple[complex, complex]:
        """The splitting q = z' + j z''."""
        return complex(self.w, self.x), complex(self.y, self.z)

    @staticmethod
    def one() -> "Quaternion":
        return Quaternion(1.0)

    @staticmethod
    def unit(axis: str) -> "Quaternion":
        if axis not in ("i", "j", "k"):
            raise ValueError(f"unknown axis {axis!r}")
        return Quaternion.of(np.eye(4)["wijk".index(axis)])


class QVector:
    """A column vector of quaternions over an (n, 4) array."""

    def __init__(self, entries: Iterable):
        self.array = np.array([np.asarray(q, dtype=float) for q in entries],
                              dtype=float).reshape(-1, 4)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.array.astype(dtype or float)

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i: int) -> Quaternion:
        return Quaternion.of(self.array[i])

    def norm2(self) -> float:
        return float(qdot(self, self)[0])

    def __abs__(self) -> float:
        return math.sqrt(self.norm2())

    def right_mul(self, q) -> "QVector":
        """Entrywise right multiplication Z |-> Z q."""
        return QVector(qmul(self, q))

    def __add__(self, other: "QVector") -> "QVector":
        if len(self) != len(other):
            raise ValueError("length mismatch")
        return QVector(self.array + other.array)

    def scale(self, c: float) -> "QVector":
        return QVector(self.array * c)

    @staticmethod
    def basis(n: int, i: int) -> "QVector":
        """The i-th standard basis vector (0-based) of H^n."""
        e = np.zeros((n, 4))
        e[i, 0] = 1.0
        return QVector(e)

    @staticmethod
    def zero(n: int) -> "QVector":
        return QVector(np.zeros((n, 4)))

    @staticmethod
    def concat(a: "QVector", b: "QVector") -> "QVector":
        return QVector(np.concatenate([a.array, b.array]))


class QMatrix:
    """A rectangular matrix of quaternions over an (m, n, 4) array."""

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

    def __getitem__(self, idx: tuple[int, int]) -> Quaternion:
        return Quaternion.of(self.array[idx])

    def dagger(self) -> "QMatrix":
        return QMatrix(qconj(self.array).swapaxes(0, 1))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        return QMatrix(sum(qmul(self.array[:, t, None], other.array[None, t])
                           for t in range(self.shape[1])))

    def apply(self, v) -> QVector:
        v = np.asarray(v, dtype=float)
        if self.shape[1] != len(v):
            raise ValueError("shape mismatch")
        return QVector((self @ QMatrix(v[:, None])).array[:, 0])

    def trace(self) -> Quaternion:
        if self.shape[0] != self.shape[1]:
            raise ValueError("trace of a non-square matrix")
        return Quaternion.of(self.array.diagonal().sum(axis=-1))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix.diag([Quaternion(1.0)] * n)

    @staticmethod
    def diag(entries: Iterable) -> "QMatrix":
        es = QVector(entries).array
        out = np.zeros((len(es), len(es), 4))
        out[range(len(es)), range(len(es))] = es
        return QMatrix(out)
