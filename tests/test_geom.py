"""The float forms of the geometric identities in ``qkepler.geom``.

The gate checks the same identities exactly (``qkepler.checks.metric``
and ``ostar``).  The seeded float sweeps that the gate ran before are
kept here as oracles: ``metric_sweep``, ``quotient_sweep`` and
``ostar_sweep``, with the Haar sampler ``random_unitary``.
"""

import math

import numpy as np
import pytest

from qkepler import checks
from qkepler.geom import (
    embed_u2n,
    embed_u2n_uv,
    fubini_study_form,
    jmat,
    metric_identity_residual,
    ostar_membership,
    quotient_factor_check,
    weight_double,
)
from qkepler.qlinalg import QMatrix, complexify_matrix, qmul, qnorm2


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


def metric_sweep(n: int, samples: int, seed: int) -> float:
    """Max metric identity residual over seeded random tangent samples.

    Each sample draws a base point Z, then its tangent vector W, from the
    seeded normal stream.
    """
    rng = np.random.default_rng(seed)
    zw = rng.normal(size=(samples, 2, n, 4))
    return float(np.max(metric_identity_residual(zw[:, 0], zw[:, 1]),
                        initial=0.0))


def quotient_sweep(n: int, samples: int, seed: int) -> float:
    """Max |s1 - 2 s2| over seeded random quotient-factor pairs."""
    rng = np.random.default_rng(seed)
    ab = rng.normal(size=(samples, 2, n - 1, 4))
    s1, s2 = quotient_factor_check(ab[:, 0], ab[:, 1])
    return float(np.max(np.abs(s1 - 2.0 * s2), initial=0.0))


def ostar_sweep(n: int, samples: int, seed: int) -> tuple[int, int]:
    """Count O* membership passes over ``samples`` seeded Haar unitaries of
    order 2n, embedded by :func:`embed_u2n`; returns (passes, samples)."""
    U = random_unitary(2 * n, np.random.default_rng(seed), samples)
    return int(np.count_nonzero(ostar_membership(embed_u2n(U)))), samples


# the standard basis vectors e_0, e_1 of H^2, as (2, 4) arrays
E0, E1 = np.eye(8)[[0, 4]].reshape(2, 2, 4)


def test_tangent_sample_validation():
    for check in (fubini_study_form, metric_identity_residual):
        with pytest.raises(ValueError):
            check(E0, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            check(np.zeros((2, 4)), E0)


def test_fubini_study_vanishes_on_vertical_directions():
    # W = Z q moves only along the fiber, so its FS length is zero, and
    # the residual | |W_perp|^2/|Z|^2 - FS | then says W_perp = 0
    rng = np.random.default_rng(2)
    for _ in range(10):
        Z = rng.normal(0.0, 1.0, size=(3, 4))
        q = rng.normal(size=4)
        q /= np.sqrt(qnorm2(q))
        for form in (fubini_study_form, metric_identity_residual):
            assert abs(form(Z, qmul(Z, q))) < 1e-13 * (1.0 + qnorm2(q))


def test_fubini_study_positive_on_horizontal():
    # E1 is orthogonal to the line E0 H, so W_perp = E1 and |W_perp|^2 = 1
    assert fubini_study_form(E0, E1) == pytest.approx(1.0)
    assert metric_identity_residual(E0, E1) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_metric_identity_on_random_samples(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(50):
        Z = rng.normal(0.0, 1.0, size=(n, 4))
        W = rng.normal(0.0, 1.0, size=(n, 4))
        assert metric_identity_residual(Z, W) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_metric_sweep(n):
    assert metric_sweep(n, 200, seed=1) < 1e-12


def test_quotient_factor_unit_example():
    # a = b = (1): X_a^dag X_a = I_2, trace 2; sphere pairing gives 1
    a = np.array([[1.0, 0.0, 0.0, 0.0]])
    s1, s2 = quotient_factor_check(a, a)
    assert s1 == pytest.approx(2.0)
    assert s2 == pytest.approx(1.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_factor_is_twice(n):
    assert quotient_sweep(n, 200, seed=3) < 1e-13


def test_quotient_factor_length_mismatch():
    with pytest.raises(ValueError):
        quotient_factor_check(np.zeros((1, 4)), np.zeros((2, 4)))


def test_jmat_small():
    np.testing.assert_array_equal(jmat(1), np.array([[0.0, -1.0], [1.0, 0.0]]))
    J = jmat(2)
    np.testing.assert_array_equal(J @ J, -np.eye(4))


def test_ostar_membership_identity_and_rejects():
    assert ostar_membership(np.eye(8))
    assert not ostar_membership(2.0 * np.eye(8))
    with pytest.raises(ValueError):
        ostar_membership(np.eye(6))


@pytest.mark.parametrize("n", [2, 3])
def test_embedded_unitaries_satisfy_both_relations(n):
    rng = np.random.default_rng(40 + n)
    for A in random_unitary(2 * n, rng, 10):
        g = embed_u2n(A)
        assert ostar_membership(g)
        # the image is unitary, hence in the maximal compact part
        assert np.max(np.abs(g.conj().T @ g - np.eye(4 * n))) < 1e-12


def test_embed_u2n_rejects_non_unitary():
    with pytest.raises(ValueError):
        embed_u2n(np.ones((4, 4)))
    with pytest.raises(ValueError):
        embed_u2n(np.eye(3))


def test_phase_lands_at_doubled_index():
    # e^{i t} at slot i shows up conjugated at slot ibar on the group side,
    # and unconjugated in the (U, conj V) frame
    phase = np.exp(0.3j)
    for n in (1, 2, 3):
        for i in range(1, 2 * n + 1):
            A = np.eye(2 * n, dtype=complex)
            A[i - 1, i - 1] = phase
            ibar = weight_double(i, n)
            d = np.diag(embed_u2n(A))
            du = np.diag(embed_u2n_uv(A))
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


@pytest.mark.parametrize("n", [2, 3])
def test_random_sp_is_symplectic(n):
    # the polar factors lie in Sp(n), and so do their products
    C = _random_sp(n, np.random.default_rng(60 + n), 5)
    assert np.all(_sp_defect(C) < 1e-12)
    assert np.all(_sp_defect(C[0] @ C[1:]) < 1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_sp_n_lands_in_ostar(n):
    C = _random_sp(n, np.random.default_rng(70 + n), 5)
    assert np.all(_sp_defect(C) < 1e-12)
    assert np.all(ostar_membership(embed_u2n(C)))


def test_sp_n_in_ostar_rejects_non_symplectic():
    # the O*(4n) embedding reads all of U(2n): a unitary outside Sp(n)
    # still lands, and an image outside U(2n) is refused
    phase = np.diag([1j, 1.0, 1.0, 1.0])
    assert _sp_defect(phase) > 0.5
    assert ostar_membership(embed_u2n(phase))
    # the image of the real diagonal matrix diag(2, 1)
    C = complexify_matrix(np.diag([2.0, 1.0])[..., None] * np.eye(4)[0])
    assert _sp_defect(C) > 0.5
    with pytest.raises(ValueError):
        embed_u2n(C)


def test_complexified_symplectic_is_unitary():
    # a quaternionic unitary built by hand, a real rotation times unit
    # quaternions on the diagonal, has a unitary complex image, and the
    # image of the product is the product of the images
    rng = np.random.default_rng(81)
    c, s = np.cos(0.7), np.sin(0.7)
    R = QMatrix(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
                [..., None] * np.eye(4)[0])
    q = rng.normal(size=(3, 4))
    D = QMatrix.diag(q / np.sqrt(qnorm2(q))[:, None])
    C = complexify_matrix(R @ D)
    assert np.max(np.abs(C.conj().T @ C - np.eye(6))) < 1e-12
    assert np.max(np.abs(C - complexify_matrix(R) @ complexify_matrix(D))) \
        < 1e-15


@pytest.mark.parametrize("n", [2, 3])
def test_ostar_sweep_counts(n):
    passes, total = ostar_sweep(n, 25, seed=9)
    assert (passes, total) == (25, 25)


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


# float.hex of the worst quotient residuals at 1000 samples, as computed
# by the scalar per-sample loops (one quaternion product at a time) that
# the batched sweeps replaced; keyed by (n, seed)
SCALAR_QUOTIENT = {
    (2, 0): "0x0.0p+0", (2, 1): "0x0.0p+0",
    (2, 7): "0x0.0p+0", (2, 11): "0x0.0p+0",
    (3, 0): "0x1.0000000000000p-49", (3, 1): "0x1.0000000000000p-49",
    (3, 7): "0x1.0000000000000p-49", (3, 11): "0x1.0000000000000p-48",
    (4, 0): "0x1.0000000000000p-48", (4, 1): "0x1.0000000000000p-48",
    (4, 7): "0x1.0000000000000p-48", (4, 11): "0x1.0000000000000p-48",
}
# math.fsum of all 1000 per-sample quotient residuals at seed 0, same loops
SCALAR_SUMS_SEED0 = {
    2: "0x0.0p+0", 3: "0x1.14a0000000000p-44", 4: "0x1.d640000000000p-43",
}


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sweeps_match_scalar_golden_bits(n, seed):
    # the metric residual compares two roundings of the projection split,
    # so it is held to the gate's bound, not to bits
    assert metric_sweep(n, 1000, seed) < 1e-12
    assert quotient_sweep(n, 1000, seed).hex() == SCALAR_QUOTIENT[n, seed]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_per_sample_residuals_match_scalar_golden_bits(n):
    # each sample is one (Z, W) pair of the seeded draw, as in metric_sweep
    zw = np.random.default_rng(0).normal(size=(1000, 2, n, 4))
    assert np.all(metric_identity_residual(zw[:, 0], zw[:, 1]) < 1e-12)
    ab = np.random.default_rng(0).normal(size=(1000, 2, n - 1, 4))
    s1, s2 = quotient_factor_check(ab[:, 0], ab[:, 1])
    assert math.fsum(np.abs(s1 - 2.0 * s2)).hex() == SCALAR_SUMS_SEED0[n]


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
@pytest.mark.parametrize("n", [2, 3])
def test_ostar_sweep_matches_scalar_counts(n, seed):
    assert ostar_sweep(n, 200, seed) == (200, 200)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embedding_reads_the_exact_lower_block_rule(n):
    # the gate's sparse rule -J conj(X) J, on the entries of a random
    # unitary: each entry of the lower block is +- one entry of conj(A),
    # so the float embedding agrees to the bit
    for A in random_unitary(2 * n, np.random.default_rng(50 + n), 5):
        sparse = {(i, j): complex(A[i, j]) for i in range(2 * n)
                  for j in range(2 * n)}
        lower = np.zeros((2 * n, 2 * n), dtype=complex)
        for (i, j), v in checks._lower_block(sparse, n).items():
            lower[i, j] = v
        assert np.array_equal(embed_u2n(A)[2 * n:, 2 * n:], lower)
