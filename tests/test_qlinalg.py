import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qkepler.qlinalg import (
    QMatrix,
    complexify,
    complexify_matrix,
    is_symplectic,
    qconj,
    qdot,
    qmul,
    qnorm2,
)

ONE, I, J, K = np.eye(4)

component = st.floats(min_value=-10.0, max_value=10.0,
                      allow_nan=False, allow_infinity=False)


def qarray(shape):
    return arrays(np.float64, shape, elements=component)


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


def test_qdot_examples():
    Z = np.stack([ONE, I])
    W = np.stack([J, 2.0 * ONE])
    # conj(1)*j + conj(i)*2 = j - 2i
    np.testing.assert_array_equal(qdot(Z, W), [0.0, -2.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        qdot(Z, ONE[None])


def test_qdot_hermitian_and_right_linear():
    rng = np.random.default_rng(5)
    Z = rng.normal(0.0, 1.0, size=(3, 4))
    W = rng.normal(0.0, 1.0, size=(3, 4))
    q = unit_quaternion(rng)
    d1, d2 = qdot(Z, W), qdot(W, Z)
    assert math.sqrt(qnorm2(qconj(d1) - d2)) < 1e-12
    assert math.sqrt(qnorm2(qdot(Z, qmul(W, q)) - qmul(d1, q))) < 1e-12
    assert math.sqrt(qnorm2(qdot(qmul(Z, q), W) - qmul(qconj(q), d1))) < 1e-12


def test_complexify_is_isometric_and_equivariant():
    rng = np.random.default_rng(11)
    n = 4
    Z = rng.normal(0.0, 1.0, size=(n, 4))
    c = complexify(Z)
    assert np.vdot(c, c).real == pytest.approx(qdot(Z, Z)[0], rel=1e-14)
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


def test_is_symplectic():
    # is_symplectic reads the complex image of a quaternion matrix
    assert is_symplectic(complexify_matrix(QMatrix.identity(3)))
    q = unit_quaternion(np.random.default_rng(3))
    assert is_symplectic(complexify_matrix(QMatrix.diag([q, ONE])))
    assert not is_symplectic(complexify_matrix(
        QMatrix.diag([2.0 * ONE, ONE])))
    with pytest.raises(ValueError):
        is_symplectic(np.eye(2, 4))


def test_complexify_matrix_requires_square():
    with pytest.raises(ValueError):
        complexify_matrix(QMatrix([[ONE, I]]))


def test_hermitian_pairing_diagonal_is_real():
    rng = np.random.default_rng(13)
    Z = rng.normal(0.0, 1.0, size=(5, 4))
    d = qdot(Z, Z)
    assert d[1:] @ d[1:] < 1e-22 * d[0] ** 2
    assert d[0] == pytest.approx(qnorm2(Z).sum(), rel=1e-14)


def test_norm_abs_consistency():
    q = np.array([3.0, 4.0, 0.0, 0.0])
    assert qnorm2(q) == 25.0
    assert qdot([q, q], [q, q])[0] == 50.0


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
