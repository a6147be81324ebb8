import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qkepler import qlinalg
from qkepler.qlinalg import MUL, QMatrix, qconj, qmul, qmul_exact
from test_mutants import install

ONE, I, J, K = np.eye(4)

component = st.floats(min_value=-10.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False)


def qarray(shape):
    return arrays(np.float64, shape, elements=component)


def qnorm2(q):
    """Squared norms over the last axis."""
    return np.sum(np.asarray(q) ** 2, axis=-1)


def complexify(Z):
    """The splitting q = z' + j z'', z' = w + x i and z'' = y + z i, of
    (..., n, 4) stacked into (..., 2n) complex."""
    return np.concatenate([Z[..., 0] + 1j * Z[..., 1],
                           Z[..., 2] + 1j * Z[..., 3]], axis=-1)


def complexify_matrix(M):
    """The complex images (..., 2n, 2n) of square quaternion matrices
    (..., n, n, 4): writing M = A + j B with complex A and B, the left
    action on z' + j z'' is the block matrix [[A, -conj(B)], [B, conj(A)]].
    The oracle for the products of ``QMatrix`` and ``qmul``."""
    M = np.asarray(M, dtype=float)
    A, B = M[..., 0] + 1j * M[..., 1], M[..., 2] + 1j * M[..., 3]
    return np.block([[A, -B.conj()], [B, A.conj()]])


def unit_quaternion(rng):
    q = rng.normal(size=4)
    return q / math.sqrt(qnorm2(q))


def test_multiplication_table():
    # the sign convention: ij = -k and cyclic partners
    for a, b, c in ((I, J, K), (J, K, I), (K, I, J)):
        np.testing.assert_array_equal(qmul(a, b), -c)
        np.testing.assert_array_equal(qmul(b, a), c)
    for u in (I, J, K):
        np.testing.assert_array_equal(qmul(u, u), -ONE)


@given(qarray((5, 4)), qarray((5, 4)))
def test_conjugation_antihomomorphism(a, b):
    lhs = qconj(qmul(a, b))
    rhs = qmul(qconj(b), qconj(a))
    scale = 1.0 + np.sqrt(qnorm2(a) * qnorm2(b))
    assert np.all(np.sqrt(qnorm2(lhs - rhs)) < 1e-12 * scale)


@given(qarray((5, 4)))
def test_norm2_via_conjugate(q):
    p = qmul(q, qconj(q))
    np.testing.assert_allclose(p[..., 0], qnorm2(q), rtol=1e-12, atol=1e-12)
    assert np.all(np.sum(p[..., 1:] ** 2, axis=-1)
                  < 1e-20 * (1.0 + qnorm2(q)) ** 2)


def test_complex_pair_reconstruction():
    q = np.array([1.0, 2.0, 3.0, 4.0])
    zp, zpp = complexify(q[None])
    assert zp == 1 + 2j and zpp == 3 + 4j
    # q = z' + j z'' with z = w + x i embedded as w + x i
    rebuilt = [zp.real, zp.imag, 0, 0] + qmul(J, [zpp.real, zpp.imag, 0, 0])
    np.testing.assert_array_equal(rebuilt, q)


def test_complexify_is_isometric_and_equivariant():
    rng = np.random.default_rng(11)
    n = 4
    Z = rng.normal(0.0, 1.0, size=(n, 4))
    c = complexify(Z)
    assert np.vdot(c, c).real == pytest.approx(qnorm2(Z).sum(), rel=1e-14)
    # right multiplication by i is the complex scalar i
    np.testing.assert_allclose(complexify(qmul(Z, I)), 1j * c, atol=1e-14)
    # right multiplication by j is Z -> J conj(Z)
    Jm = np.zeros((2 * n, 2 * n))
    Jm[:n, n:] = -np.eye(n)
    Jm[n:, :n] = np.eye(n)
    np.testing.assert_allclose(complexify(qmul(Z, J)), Jm @ c.conj(),
                               atol=1e-14)


def test_complexify_matrix_intertwines_action():
    rng = np.random.default_rng(23)
    n = 3
    M = QMatrix(rng.normal(size=(n, n, 4)))
    Z = rng.normal(0.0, 1.0, size=(n, 4))
    np.testing.assert_allclose(complexify(M.apply(Z)),
                               complexify_matrix(M) @ complexify(Z),
                               atol=1e-12)


def test_complexify_matrix_multiplicative():
    rng = np.random.default_rng(29)
    n = 2
    A = QMatrix(rng.normal(size=(n, n, 4)))
    B = QMatrix(rng.normal(size=(n, n, 4)))
    np.testing.assert_allclose(complexify_matrix(A @ B),
                               complexify_matrix(A) @ complexify_matrix(B),
                               atol=1e-12)


def test_matrix_building_blocks():
    M = QMatrix([[ONE, I], [J, K]])
    assert M.shape == (2, 2)
    np.testing.assert_array_equal(M[0, 1], I)
    np.testing.assert_array_equal(M.dagger()[1, 0], -I)
    np.testing.assert_array_equal(M.trace(), ONE + K)
    np.testing.assert_array_equal(M.apply([ONE, ONE]), [ONE + I, J + K])
    np.testing.assert_array_equal(QMatrix.identity(3).array,
                                  QMatrix.diag([ONE] * 3).array)
    assert QMatrix.identity(3).shape == (3, 3)
    with pytest.raises(ValueError):
        QMatrix([[ONE, I], [J]])
    with pytest.raises(ValueError):
        QMatrix([[ONE, I]]).trace()
    with pytest.raises(ValueError):
        QMatrix([[ONE]]) @ QMatrix([[ONE, I], [J, K]])


# Batched kernels: each identity on whole batches of shape (k, 4) and
# (k, n, 4), not one quaternion at a time.

# the unit table under i j = -k, as (sign, unit) with units 1, i, j, k
UNIT_TABLE = {
    "11": "+1", "1i": "+i", "1j": "+j", "1k": "+k",
    "i1": "+i", "ii": "-1", "ij": "-k", "ik": "+j",
    "j1": "+j", "ji": "+k", "jj": "-1", "jk": "-i",
    "k1": "+k", "ki": "-j", "kj": "+i", "kk": "-1",
}


def unit_table() -> np.ndarray:
    T = np.zeros((4, 4, 4))
    for key, (sign, unit) in UNIT_TABLE.items():
        T["1ijk".index(key[0]), "1ijk".index(key[1]), "1ijk".index(unit)] = \
            1.0 if sign == "+" else -1.0
    return T


BATCH_SHAPES = [(5, 4), (3, 2, 4)]
# each example is a whole batch, so fewer examples cover as many products
batch_settings = settings(max_examples=50)


def test_qmul_batched_unit_table():
    E = np.eye(4)
    np.testing.assert_array_equal(qmul(E[:, None], E[None, :]), unit_table())
    np.testing.assert_array_equal(np.array(MUL), unit_table())


def hand_written(a, b):
    """The float product written out term by term, in the order that the
    table's contraction keeps."""
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw - ay * bz + az * by,
        aw * by + ay * bw + ax * bz - az * bx,
        aw * bz + az * bw - ax * by + ay * bx,
    ], axis=-1)


def test_qmul_is_the_table_contraction_to_the_bit():
    rng = np.random.default_rng(17)
    # on float arrays, signed zeros included: the hand-written sums
    a, b = rng.normal(size=(2, 500, 4))
    a[::7], b[::5] = 0.0, -0.0
    assert qmul(a, b).tobytes() == hand_written(a, b).tobytes()
    # on integer points the float product is exact: the int contraction
    ints = rng.integers(-2 ** 20, 2 ** 20, size=(2, 200, 4))
    exact = [qmul_exact(p.tolist(), q.tolist()) for p, q in zip(*ints)]
    assert qmul(*ints).tobytes() == np.array(exact, dtype=float).tobytes()


@pytest.mark.parametrize("mutant", ["qmul-not-associative",
                                    "qmul-componentwise"])
def test_qmul_reads_the_mutated_table(mutant, monkeypatch):
    # one table: the float product contracts the table the exact gate rows
    # read, so the gate's product mutants reach it too
    install(mutant, monkeypatch)
    assert qlinalg.MUL != MUL
    E = np.eye(4)
    assert np.array_equal(qmul(E[:, None], E[None, :]),
                          np.array(qlinalg.MUL))


@pytest.mark.parametrize("shape", BATCH_SHAPES)
@given(data=st.data())
@batch_settings
def test_qmul_batched_expands_the_unit_table(shape, data):
    a, b = data.draw(qarray(shape)), data.draw(qarray(shape))
    expected = np.einsum("...p,...q,pqr->...r", a, b, unit_table())
    np.testing.assert_allclose(qmul(a, b), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", BATCH_SHAPES)
@given(data=st.data())
@batch_settings
def test_qmul_batched_associative(shape, data):
    a, b, c = (data.draw(qarray(shape)) for _ in range(3))
    lhs, rhs = qmul(qmul(a, b), c), qmul(a, qmul(b, c))
    scale = 1.0 + np.sqrt(qnorm2(a) * qnorm2(b) * qnorm2(c))
    assert np.all(np.sqrt(qnorm2(lhs - rhs)) < 1e-10 * scale)


@pytest.mark.parametrize("shape", BATCH_SHAPES)
@given(data=st.data())
@batch_settings
def test_qmul_batched_norm_multiplicative(shape, data):
    a, b = data.draw(qarray(shape)), data.draw(qarray(shape))
    np.testing.assert_allclose(np.sqrt(qnorm2(qmul(a, b))),
                               np.sqrt(qnorm2(a)) * np.sqrt(qnorm2(b)),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
@given(data=st.data())
@batch_settings
def test_complexify_matrix_batched_multiplicative(n, data):
    A, B = (data.draw(qarray((4, n, n, 4))) for _ in range(2))
    # (AB)_ij = sum_t A_it B_tj, over the batch of 4 pairs at once
    AB = qmul(A[..., :, :, None, :], B[..., None, :, :, :]).sum(axis=-3)
    np.testing.assert_allclose(complexify_matrix(AB),
                               complexify_matrix(A) @ complexify_matrix(B),
                               rtol=0, atol=1e-10 * (1.0 + n * 400.0))
