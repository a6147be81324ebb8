"""The index-doubling rule ``qkepler.geom.weight_double``, and the gate's
exact lower-block rule of the embedding U(2n) into O*(4n) against the
same embedding in numpy.

The gate checks the geometric identities themselves exactly
(``qkepler.checks.metric`` and ``ostar``); the float forms that the
tests once compared with them are gone.  ``random_unitary`` samples the
unitaries that the embedding tests read, and ``_random_sp`` samples Sp(n)
through the complex images of ``QMatrix``.
"""

import math

import numpy as np
import pytest

from qkepler import checks
from qkepler.geom import weight_double
from qkepler.qlinalg import QMatrix
from test_qlinalg import complexify_matrix


def random_unitary(dim: int, rng: np.random.Generator,
                   samples: int) -> np.ndarray:
    """``samples`` Haar unitaries of order ``dim``, as one (samples, dim, dim)
    batch: the unitary polar factors W Vh of complex Ginibre matrices
    G = W S Vh, each drawing its real part, then its imaginary part.

    Haar on Ginibre input (Mezzadri, Notices AMS 54, 2007): a Ginibre batch
    is invariant under left multiplication by a fixed unitary h, and the
    factor of hG is h times that of G, so the factor's law is left
    invariant, which on a compact group means Haar.
    """
    G = rng.normal(size=(samples, 2, dim, dim))
    W, _, Vh = np.linalg.svd(G[:, 0] + 1j * G[:, 1])
    return W @ Vh


def jmat(n: int) -> np.ndarray:
    """The 2n x 2n block matrix [[0, -I_n], [I_n, 0]]."""
    return np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(n))


def _random_sp(n, rng, samples):
    # Sp(n) elements as complex images: the unitary polar factors of the
    # images of quaternionic Ginibre matrices, which keep the block form
    W, _, Vh = np.linalg.svd(complexify_matrix(rng.normal(
        size=(samples, n, n, 4))))
    return W @ Vh


def _sp_defect(C):
    # per image, the max entry distance from U(2n) and from the block
    # form [[A, -conj(B)], [B, conj(A)]]; zero exactly on Sp(n)
    n = C.shape[-1] // 2
    unitary = np.abs(C.conj().swapaxes(-1, -2) @ C - np.eye(2 * n))
    block = np.maximum(np.abs(C[..., :n, :n] - C[..., n:, n:].conj()),
                       np.abs(C[..., :n, n:] + C[..., n:, :n].conj()))
    return np.maximum(unitary.max(axis=(-2, -1)), block.max(axis=(-2, -1)))


def test_phase_lands_at_doubled_index():
    # e^{i t} at slot i shows up conjugated at slot ibar on the group side,
    # diag(A, -J conj(A) J), and unconjugated in the (U, conj V) frame,
    # diag(A, -J A J)
    phase = np.exp(0.3j)
    for n in (1, 2, 3):
        J = jmat(n)
        for i in range(1, 2 * n + 1):
            A = np.eye(2 * n, dtype=complex)
            A[i - 1, i - 1] = phase
            ibar = weight_double(i, n)
            d = np.concatenate([np.diag(A), np.diag(-J @ A.conj() @ J)])
            du = np.concatenate([np.diag(A), np.diag(-J @ A @ J)])
            assert d[i - 1] == phase
            assert abs(d[ibar - 1] - phase.conjugate()) < 1e-15
            assert abs(du[ibar - 1] - phase) < 1e-15
            others = [t for t in range(4 * n) if t not in (i - 1, ibar - 1)]
            assert np.max(np.abs(d[others] - 1.0)) < 1e-15


def test_weight_double_frozen_table_n2():
    assert [weight_double(i, 2) for i in (1, 2, 3, 4)] == [7, 8, 5, 6]


@pytest.mark.parametrize("n", range(1, 7))
def test_weight_double_characterization(n):
    seen = set()
    for i in range(1, 2 * n + 1):
        ibar = weight_double(i, n)
        assert ibar > 2 * n
        assert abs(ibar - i - 2 * n) == n
        seen.add(ibar)
    assert seen == set(range(2 * n + 1, 4 * n + 1))


def test_weight_double_range_check():
    with pytest.raises(ValueError):
        weight_double(0, 2)
    with pytest.raises(ValueError):
        weight_double(5, 2)


@pytest.mark.parametrize("n", [2, 3])
def test_random_sp_is_symplectic(n):
    # the polar factors lie in Sp(n), and so do their products
    C = _random_sp(n, np.random.default_rng(60 + n), 5)
    assert np.all(_sp_defect(C) < 1e-12)
    assert np.all(_sp_defect(C[0] @ C[1:]) < 1e-12)


def test_complexified_symplectic_is_unitary():
    # a quaternionic unitary built by hand, a real rotation times unit
    # quaternions on the diagonal, has a unitary complex image, and the
    # image of the product is the product of the images
    rng = np.random.default_rng(81)
    c, s = np.cos(0.7), np.sin(0.7)
    R = QMatrix(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
                [..., None] * np.eye(4)[0])
    q = rng.normal(size=(3, 4))
    D = QMatrix.diag(q / np.linalg.norm(q, axis=1)[:, None])
    C = complexify_matrix(R @ D)
    assert np.max(np.abs(C.conj().T @ C - np.eye(6))) < 1e-12
    assert np.max(np.abs(C - complexify_matrix(R) @ complexify_matrix(D))) \
        < 1e-15


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(90)
    [U] = random_unitary(6, rng, 1)
    assert np.max(np.abs(U.conj().T @ U - np.eye(6))) < 1e-12


@pytest.mark.parametrize("sampler", [
    lambda d, rng, samples: _random_sp(d // 2, rng, samples),
    random_unitary], ids=["sp", "unitary"])
def test_samplers_are_haar_in_the_second_moment(sampler):
    # under Haar measure on Sp(d/2) or U(d) the first column is uniform on
    # the unit sphere of C^d, so |C_00|^2 ~ Beta(1, d - 1), of mean 1/d
    # and variance (d - 1)/(d^2 (d + 1))
    d, samples = 4, 8000
    C = sampler(d, np.random.default_rng(0), samples)
    stderr = math.sqrt((d - 1) / (d * d * (d + 1)) / samples)
    assert abs(np.mean(np.abs(C[:, 0, 0]) ** 2) - 1 / d) < 4 * stderr


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embedding_reads_the_exact_lower_block_rule(n):
    # the gate's sparse rule -J conj(X) J, on the entries of a random
    # unitary: each entry of the lower block is +- one entry of conj(A),
    # so the dense numpy product agrees to the bit
    J = jmat(n)
    for A in random_unitary(2 * n, np.random.default_rng(50 + n), 5):
        sparse = {(i, j): complex(A[i, j]) for i in range(2 * n)
                  for j in range(2 * n)}
        lower = np.zeros((2 * n, 2 * n), dtype=complex)
        for (i, j), v in checks._lower_block(sparse, n).items():
            lower[i, j] = v
        assert np.array_equal(-J @ A.conj() @ J, lower)
