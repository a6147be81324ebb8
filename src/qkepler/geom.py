"""Geometric identity checks on quaternionic space.

Two families of checks live here.  The metric family verifies, on random
tangent samples, that the flat metric of H^n splits into a radial part, a
Fubini-Study part and a fiber part, and that the bi-invariant metric on
Sp(n) descends to twice the Fubini-Study metric on the quaternionic
projective space.  The matrix family verifies the defining relations of
the group O*(4n) = U(2n,2n) n O(4n,C), the embedding of U(2n) into it,
and the index-doubling rule for diagonal weights.

Data layout: quaternion vectors are float arrays (..., n, 4) as in
``qkepler.qlinalg``, and elements of Sp(n) are their 2n x 2n complex
images.  Leading axes batch samples, so each sweep draws its samples in
one array and evaluates them together.

Conventions: J denotes the 2n x 2n block matrix [[0, -I_n], [I_n, 0]].
O*(4n) is cut out of GL(4n,C) by

    g^dag diag(I, -I) g = diag(I, -I)   and
    g^T  [[0, J], [-J, 0]] g = [[0, J], [-J, 0]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qlinalg import (
    complexify_matrix,
    is_symplectic,
    qconj,
    qdot,
    qmul,
    qnorm2,
)

__all__ = [
    "TangentSample",
    "fubini_study_form",
    "metric_identity_residual",
    "quotient_factor_check",
    "jmat",
    "ostar_membership",
    "embed_u2n",
    "embed_u2n_uv",
    "weight_double",
    "sp_n_in_ostar",
    "random_unitary",
    "random_sp",
    "metric_sweep",
    "quotient_sweep",
    "ostar_sweep",
]

DEFAULT_MEMBERSHIP_TOL = 1e-10


@dataclass(frozen=True)
class TangentSample:
    """Base points Z != 0 of H^n with tangent vectors W, as (..., n, 4) arrays.

    Leading axes batch samples; the forms below give one value per sample.
    """

    base: np.ndarray
    vector: np.ndarray

    def __post_init__(self) -> None:
        if np.shape(self.base) != np.shape(self.vector):
            raise ValueError("base and vector must have equal length")
        if np.any(qdot(self.base, self.base)[..., 0] == 0.0):
            raise ValueError("base point must be nonzero")


def fubini_study_form(s: TangentSample) -> np.ndarray:
    """The Fubini-Study quadratic form |W|^2/|Z|^2 - |conj(Z).W|^2/|Z|^4."""
    z2 = qdot(s.base, s.base)[..., 0]
    zw = qdot(s.base, s.vector)
    return qdot(s.vector, s.vector)[..., 0] / z2 - qnorm2(zw) / (z2 * z2)


def metric_identity_residual(s: TangentSample) -> np.ndarray:
    """Deviation of |W|^2 from its radial + Fubini-Study + fiber split.

    The split evaluates the identity

        |dZ|^2 = d rho^2 + rho^2 (ds_FS^2 + (Im(conj(Z).dZ)/|Z|^2)^2)

    on the sample (Z, W); the return value is identically zero up to
    rounding for every nonzero Z.
    """
    z2 = qdot(s.base, s.base)[..., 0]
    zw = qdot(s.base, s.vector)
    w, x, y, z = np.moveaxis(zw, -1, 0)
    radial = w * w / z2
    fiber = (x * x + y * y + z * z) / z2
    rhs = radial + z2 * fubini_study_form(s) + fiber
    return np.abs(qdot(s.vector, s.vector)[..., 0] - rhs)


def _bordered(a: np.ndarray) -> np.ndarray:
    """The tangent matrices [[0, -a^dag], [a, 0]] of Sp(n) at the identity."""
    n = a.shape[-2] + 1
    X = np.zeros(a.shape[:-2] + (n, n, 4))
    X[..., 0, 1:, :] = -qconj(a)
    X[..., 1:, 0, :] = a
    return X


def quotient_factor_check(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the same pair of tangent vectors in two metrics.

    ``a`` and ``b`` (length n-1) parameterize tangent vectors of Sp(n) at
    the identity that are orthogonal to the stabilizer directions.  The
    first return value is their trace-form inner product Re tr(X_a^dag X_b)
    on Sp(n); the second is the round-sphere inner product of the pushed
    forward vectors (0; a), (0; b) on S^{4n-1}.  The first is always twice
    the second, which is why the quotient metric on the projective space
    is twice the Fubini-Study metric.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("length mismatch")
    # Re (X_a^dag X_b)_kk = sum_t Re conj(X_a)_tk (X_b)_tk, summed in t order
    terms = qmul(qconj(_bordered(a)), _bordered(b))[..., 0]
    diagonal = trace = 0.0
    for t in range(terms.shape[-2]):
        diagonal = diagonal + terms[..., t, :]
    for k in range(terms.shape[-1]):
        trace = trace + diagonal[..., k]
    return trace, qdot(a, b)[..., 0]


def jmat(n: int) -> np.ndarray:
    """The 2n x 2n block matrix [[0, -I_n], [I_n, 0]]."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def _ostar_forms(n: int) -> tuple[np.ndarray, np.ndarray]:
    eta = np.diag(np.concatenate([np.ones(2 * n), -np.ones(2 * n)]))
    J = jmat(n)
    omega = np.zeros((4 * n, 4 * n))
    omega[: 2 * n, 2 * n:] = J
    omega[2 * n:, : 2 * n] = -J
    return eta, omega


def ostar_membership(g: np.ndarray, tol: float = DEFAULT_MEMBERSHIP_TOL):
    """Check both defining relations of O*(4n) to ``tol`` in max entry norm.

    A batch (..., 4n, 4n) gives one verdict per matrix.
    """
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2] or g.shape[-1] % 4:
        raise ValueError(f"expected a square matrix of order 4n, got {g.shape}")
    eta, omega = _ostar_forms(g.shape[-1] // 4)
    gT = g.swapaxes(-1, -2)
    d1 = np.abs(gT.conj() @ eta @ g - eta).max(axis=(-2, -1))
    d2 = np.abs(gT @ omega @ g - omega).max(axis=(-2, -1))
    return np.maximum(d1, d2) <= tol


def _embed(A: np.ndarray, tol: float, lower) -> np.ndarray:
    """diag(A, lower(A, J)) for unitaries A of order 2n, batched."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] % 2:
        raise ValueError(f"expected a square matrix of order 2n, got {A.shape}")
    m = A.shape[-1]
    if not np.all(np.abs(A.conj().swapaxes(-1, -2) @ A - np.eye(m)) <= tol):
        raise ValueError("input is not unitary to tolerance")
    out = np.zeros(A.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    out[..., :m, :m] = A
    out[..., m:, m:] = lower(A, jmat(m // 2))
    return out


def embed_u2n(A: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Embed a unitary A of order 2n into O*(4n) as diag(A, -J conj(A) J).

    The image satisfies both O* relations and is unitary, so it lands in
    the maximal compact subgroup U(4n) n O*(4n).  A diagonal phase e^{i t}
    at slot i reappears, conjugated, at slot ``weight_double(i, n)``; the
    partner matrix in the (U, conj(V)) frame (see :func:`embed_u2n_uv`)
    carries the phase itself at that slot.
    """
    return _embed(A, tol, lambda A, J: -J @ A.conj() @ J)


def embed_u2n_uv(A: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """The same group element written in the (U, conj(V)) frame: diag(A, -J A J)."""
    return _embed(A, tol, lambda A, J: -J @ A @ J)


def weight_double(i: int, n: int) -> int:
    """The unique index i-bar > 2n with |i-bar - i - 2n| = n (indices 1-based).

    Encodes where the embedding U(2n) into U(4n) duplicates the i-th
    diagonal weight: the diagonal unit e_i of u(2n) maps to e_i + e_ibar
    in u(4n).
    """
    if not 1 <= i <= 2 * n:
        raise ValueError(f"index {i} out of range 1..{2 * n}")
    ibar = i + 3 * n if i <= n else i + n
    if abs(ibar - i - 2 * n) != n or ibar <= 2 * n:
        raise ArithmeticError(f"weight_double({i}, {n}) = {ibar} is off "
                              f"|i-bar - i - 2n| = n, i-bar > 2n")
    return ibar


def sp_n_in_ostar(C: np.ndarray, tol: float = DEFAULT_MEMBERSHIP_TOL):
    """Push Sp(n) elements, given as complex images, into O*(4n) and test membership."""
    if not np.all(is_symplectic(C, tol=1e-9)):
        raise ValueError("input is not symplectic-unitary to tolerance")
    return ostar_membership(embed_u2n(C), tol)


def _polar(M: np.ndarray) -> np.ndarray:
    """The unitary polar factors W Vh of square matrices M = W S Vh, batched.

    Haar on Ginibre input (Mezzadri, Notices AMS 54, 2007): a Ginibre batch
    is invariant under left multiplication by a fixed unitary h, and the
    factor of hM is h times that of M, so the factor's law is left
    invariant, which on a compact group means Haar.  A quaternionic
    Ginibre image is invariant under Sp(n), and its factor M (M^dag
    M)^(-1/2) keeps the quaternionic block form, so it is Haar on Sp(n).
    """
    W, _, Vh = np.linalg.svd(M)
    return W @ Vh


def random_unitary(dim: int, rng: np.random.Generator,
                   samples: int) -> np.ndarray:
    """``samples`` Haar unitaries of order ``dim``, as one (samples, dim, dim)
    batch: polar factors of complex Ginibre matrices.

    Each matrix draws its real part, then its imaginary part.
    """
    G = rng.normal(size=(samples, 2, dim, dim))
    return _polar(G[:, 0] + 1j * G[:, 1])


def random_sp(n: int, rng: np.random.Generator, samples: int) -> np.ndarray:
    """``samples`` Haar elements of Sp(n), as a (samples, 2n, 2n) batch of
    complex images: polar factors of quaternionic Ginibre matrices."""
    return _polar(complexify_matrix(rng.normal(size=(samples, n, n, 4))))


def metric_sweep(n: int, samples: int, seed: int) -> float:
    """Max metric identity residual over seeded random tangent samples.

    Each sample draws a base point Z, then its tangent vector W, from the
    seeded normal stream.
    """
    rng = np.random.default_rng(seed)
    zw = rng.normal(size=(samples, 2, n, 4))
    s = TangentSample(zw[:, 0], zw[:, 1])
    return float(np.max(metric_identity_residual(s), initial=0.0))


def quotient_sweep(n: int, samples: int, seed: int) -> float:
    """Max |s1 - 2 s2| over seeded random quotient-factor pairs."""
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(samples, 2, n - 1, 4))
    s1, s2 = quotient_factor_check(ab[:, 0], ab[:, 1])
    return float(np.max(np.abs(s1 - 2.0 * s2), initial=0.0))


def ostar_sweep(n: int, samples: int, seed: int,
                tol: float = DEFAULT_MEMBERSHIP_TOL) -> tuple[int, int]:
    """Count O* membership passes over seeded unitary and Sp(n) images.

    Returns (passes, total) with total = 2*samples: ``samples`` random
    embedded unitaries and ``samples`` random symplectic images.
    """
    rng = np.random.default_rng(seed)
    U = random_unitary(2 * n, rng, samples)
    S = random_sp(n, rng, samples)
    passes = np.count_nonzero(ostar_membership(embed_u2n(U), tol)) \
        + np.count_nonzero(sp_n_in_ostar(S, tol))
    return int(passes), 2 * samples
