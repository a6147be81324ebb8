"""Geometric identities on quaternionic space, on float arrays.

Two families of identities live here.  The metric family: the
Fubini-Study form of H^n is the squared length of the part of a tangent
vector orthogonal to the quaternionic line of its base point, and the
bi-invariant metric on Sp(n) descends to twice the Fubini-Study metric
on the quaternionic projective space.  The matrix family: the defining
relations of the group O*(4n) = U(2n,2n) n O(4n,C), the embedding of
U(2n) into it, and the index-doubling rule for diagonal weights.

The gate checks both families exactly, in integers, in
``qkepler.checks``; the float forms here are what the tests compare
those rows with.  The array routes import numpy when they run, so
``import qkepler.geom`` loads no numpy, and ``weight_double``, which the
gate reads, never does.

Data layout: quaternion vectors are float arrays (..., n, 4) as in
``qkepler.qlinalg``, and a tangent sample is a base point array Z with a
tangent array W of the same shape.  Leading axes batch samples.

Conventions: J denotes the 2n x 2n block matrix [[0, -I_n], [I_n, 0]].
O*(4n) is cut out of GL(4n,C) by

    g^dag diag(I, -I) g = diag(I, -I)   and
    g^T  [[0, J], [-J, 0]] g = [[0, J], [-J, 0]].

Sp(n) needs no check of its own: its complex image is a unitary of
order 2n, so its embedding is a case of the U(2n) one.
"""

from __future__ import annotations

from .qlinalg import qconj, qdot, qmul, qnorm2

__all__ = [
    "fubini_study_form",
    "metric_identity_residual",
    "quotient_factor_check",
    "jmat",
    "ostar_membership",
    "embed_u2n",
    "embed_u2n_uv",
    "weight_double",
]

MEMBERSHIP_TOL = 1e-10  # max entry deviation from either O*(4n) relation
UNITARITY_TOL = 1e-8  # max entry deviation of A^dag A from I in ``_embed``


def _pairings(Z, W) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|Z|^2, conj(Z).W and |W|^2 of tangent samples, one pairing each."""
    import numpy as np
    if np.shape(Z) != np.shape(W):
        raise ValueError("base and vector must have equal length")
    z2 = qdot(Z, Z)[..., 0]
    if np.any(z2 == 0.0):
        raise ValueError("base point must be nonzero")
    return z2, qdot(Z, W), qdot(W, W)[..., 0]


def _fubini_study(z2, zw, w2) -> np.ndarray:
    return w2 / z2 - qnorm2(zw) / (z2 * z2)


def fubini_study_form(Z, W) -> np.ndarray:
    """The Fubini-Study quadratic form |W|^2/|Z|^2 - |conj(Z).W|^2/|Z|^4.

    Base points Z != 0 and tangent vectors W are (..., n, 4) arrays of
    equal shape; leading axes batch samples, with one value per sample.
    """
    return _fubini_study(*_pairings(Z, W))


def metric_identity_residual(Z, W) -> np.ndarray:
    """Deviation of |W_perp|^2/|Z|^2 from the Fubini-Study form.

    W_perp = W - Z q with q = conj(Z).W/|Z|^2 is the part of W orthogonal
    to the quaternionic line Z H, so by Pythagoras

        |W_perp|^2 / |Z|^2 = |W|^2/|Z|^2 - |conj(Z).W|^2/|Z|^4 = ds_FS^2(W).

    The right products Z q go through ``qmul``, so a product that is not
    associative or not the quaternion one leaves a residual of order one.
    Samples (Z, W) are checked and batched as in :func:`fubini_study_form`.
    """
    import numpy as np
    z2, zw, w2 = _pairings(Z, W)
    q = zw / z2[..., None]
    w_perp = np.asarray(W, dtype=float) - qmul(Z, q[..., None, :])
    return np.abs(qnorm2(w_perp).sum(axis=-1) / z2
                  - _fubini_study(z2, zw, w2))


def _bordered(a: np.ndarray) -> np.ndarray:
    """The tangent matrices [[0, -a^dag], [a, 0]] of Sp(n) at the identity."""
    import numpy as np
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
    import numpy as np
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
    import numpy as np
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def _ostar_forms(n: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    eta = np.diag(np.concatenate([np.ones(2 * n), -np.ones(2 * n)]))
    J = jmat(n)
    omega = np.zeros((4 * n, 4 * n))
    omega[: 2 * n, 2 * n:] = J
    omega[2 * n:, : 2 * n] = -J
    return eta, omega


def ostar_membership(g: np.ndarray):
    """Check both defining relations of O*(4n) to ``MEMBERSHIP_TOL`` in max
    entry norm.

    A batch (..., 4n, 4n) gives one verdict per matrix.
    """
    import numpy as np
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2] or g.shape[-1] % 4:
        raise ValueError(f"expected a square matrix of order 4n, got {g.shape}")
    eta, omega = _ostar_forms(g.shape[-1] // 4)
    gT = g.swapaxes(-1, -2)
    d1 = np.abs(gT.conj() @ eta @ g - eta).max(axis=(-2, -1))
    d2 = np.abs(gT @ omega @ g - omega).max(axis=(-2, -1))
    return np.maximum(d1, d2) <= MEMBERSHIP_TOL


def _embed(A: np.ndarray, lower) -> np.ndarray:
    """diag(A, lower(A, J)) for unitaries A of order 2n, batched."""
    import numpy as np
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] % 2:
        raise ValueError(f"expected a square matrix of order 2n, got {A.shape}")
    m = A.shape[-1]
    deviation = np.abs(A.conj().swapaxes(-1, -2) @ A - np.eye(m))
    if not np.all(deviation <= UNITARITY_TOL):
        raise ValueError("input is not unitary to tolerance")
    out = np.zeros(A.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    out[..., :m, :m] = A
    out[..., m:, m:] = lower(A, jmat(m // 2))
    return out


def embed_u2n(A: np.ndarray) -> np.ndarray:
    """Embed a unitary A of order 2n into O*(4n) as diag(A, -J conj(A) J).

    The image satisfies both O* relations and is unitary, so it lands in
    the maximal compact subgroup U(4n) n O*(4n).  A diagonal phase e^{i t}
    at slot i reappears, conjugated, at slot ``weight_double(i, n)``; the
    partner matrix in the (U, conj(V)) frame (see :func:`embed_u2n_uv`)
    carries the phase itself at that slot.
    """
    return _embed(A, lambda A, J: -J @ A.conj() @ J)


def embed_u2n_uv(A: np.ndarray) -> np.ndarray:
    """The same group element written in the (U, conj(V)) frame: diag(A, -J A J)."""
    return _embed(A, lambda A, J: -J @ A @ J)


def weight_double(i: int, n: int) -> int:
    """The unique index i-bar > 2n with |i-bar - i - 2n| = n (indices 1-based).

    Encodes where the embedding U(2n) into U(4n) duplicates the i-th
    diagonal weight: the diagonal unit e_i of u(2n) maps to e_i - e_ibar
    in u(4n) under :func:`embed_u2n`, and to e_i + e_ibar in the
    (U, conj(V)) frame.
    """
    if not 1 <= i <= 2 * n:
        raise ValueError(f"index {i} out of range 1..{2 * n}")
    ibar = i + 3 * n if i <= n else i + n
    if abs(ibar - i - 2 * n) != n or ibar <= 2 * n:
        raise ArithmeticError(f"weight_double({i}, {n}) = {ibar} is off "
                              f"|i-bar - i - 2n| = n, i-bar > 2n")
    return ibar
