import math

import numpy as np
import pytest

from qkepler.geom import (
    embed_u2n,
    embed_u2n_uv,
    fubini_study_form,
    jmat,
    metric_identity_residual,
    metric_sweep,
    ostar_membership,
    ostar_sweep,
    quotient_factor_check,
    quotient_sweep,
    random_sp,
    random_unitary,
    sp_n_in_ostar,
    weight_double,
)
from qkepler.qlinalg import (
    complexify_matrix,
    is_symplectic,
    qmul,
    qnorm2,
)

# the standard basis vectors e_0, e_1 of H^2, as (2, 4) arrays
E0, E1 = np.eye(8)[[0, 4]].reshape(2, 2, 4)


def test_tangent_sample_validation():
    for check in (fubini_study_form, metric_identity_residual):
        with pytest.raises(ValueError):
            check(E0, np.zeros((3, 4)))
        with pytest.raises(ValueError):
            check(np.zeros((2, 4)), E0)


def test_fubini_study_vanishes_on_vertical_directions():
    # W = Z q moves only along the fiber, so its FS length is zero
    rng = np.random.default_rng(2)
    for _ in range(10):
        Z = rng.normal(0.0, 1.0, size=(3, 4))
        q = rng.normal(size=4)
        q /= np.sqrt(qnorm2(q))
        assert abs(fubini_study_form(Z, qmul(Z, q))) \
            < 1e-13 * (1.0 + qnorm2(q))


def test_fubini_study_positive_on_horizontal():
    assert fubini_study_form(E0, E1) == pytest.approx(1.0)


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
        assert ostar_membership(g, tol=1e-10)
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


@pytest.mark.parametrize("n", [2, 3])
def test_random_sp_is_symplectic(n):
    rng = np.random.default_rng(60 + n)
    assert np.all(is_symplectic(random_sp(n, rng, 5), tol=1e-12))


@pytest.mark.parametrize("n", [2, 3])
def test_sp_n_lands_in_ostar(n):
    rng = np.random.default_rng(70 + n)
    assert np.all(sp_n_in_ostar(random_sp(n, rng, 5), tol=1e-10))


def test_sp_n_in_ostar_rejects_non_symplectic():
    with pytest.raises(ValueError):
        # the real diagonal matrix diag(2, 1)
        sp_n_in_ostar(complexify_matrix(np.diag([2.0, 1.0])[..., None]
                                        * np.eye(4)[0]))


def test_complexified_symplectic_is_unitary():
    # the complexification of Sp(n) sits inside U(2n); random_sp returns it
    rng = np.random.default_rng(81)
    [C] = random_sp(3, rng, 1)
    assert np.max(np.abs(C.conj().T @ C - np.eye(6))) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_ostar_sweep_counts(n):
    passes, total = ostar_sweep(n, 25, seed=9)
    assert (passes, total) == (50, 50)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(90)
    [U] = random_unitary(6, rng, 1)
    assert np.max(np.abs(U.conj().T @ U - np.eye(6))) < 1e-12


@pytest.mark.parametrize("sampler", [random_sp, lambda n, rng, samples:
                                     random_unitary(2 * n, rng, samples)],
                         ids=["sp", "unitary"])
def test_samplers_are_haar_in_the_second_moment(sampler):
    # under Haar measure on Sp(n) or U(2n) the first column is uniform on
    # the unit sphere of C^{2n}, so |C_00|^2 ~ Beta(1, 2n - 1), of mean
    # 1/(2n) and variance (2n - 1)/((2n)^2 (2n + 1))
    n, samples = 2, 8000
    C = sampler(n, np.random.default_rng(0), samples)
    d = 2 * n
    stderr = math.sqrt((d - 1) / (d * d * (d + 1)) / samples)
    assert abs(np.mean(np.abs(C[:, 0, 0]) ** 2) - 1 / d) < 4 * stderr


# float.hex of the worst residuals at 1000 samples, as computed by the
# scalar per-sample loops (one quaternion product at a time) that the
# batched sweeps replaced; keyed by (n, seed)
SCALAR_METRIC = {
    2: "0x1.0000000000000p-48", 3: "0x1.0000000000000p-47",
    4: "0x1.0000000000000p-47",
}
SCALAR_QUOTIENT = {
    (2, 0): "0x0.0p+0", (2, 1): "0x0.0p+0",
    (2, 7): "0x0.0p+0", (2, 11): "0x0.0p+0",
    (3, 0): "0x1.0000000000000p-49", (3, 1): "0x1.0000000000000p-49",
    (3, 7): "0x1.0000000000000p-49", (3, 11): "0x1.0000000000000p-48",
    (4, 0): "0x1.0000000000000p-48", (4, 1): "0x1.0000000000000p-48",
    (4, 7): "0x1.0000000000000p-48", (4, 11): "0x1.0000000000000p-48",
}
# math.fsum of all 1000 per-sample residuals at seed 0, same loops
SCALAR_SUMS_SEED0 = {
    2: ("0x1.0340000000000p-41", "0x0.0p+0"),
    3: ("0x1.7660000000000p-41", "0x1.14a0000000000p-44"),
    4: ("0x1.d680000000000p-41", "0x1.d640000000000p-43"),
}


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sweeps_match_scalar_golden_bits(n, seed):
    assert metric_sweep(n, 1000, seed).hex() == SCALAR_METRIC[n]
    assert quotient_sweep(n, 1000, seed).hex() == SCALAR_QUOTIENT[n, seed]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_per_sample_residuals_match_scalar_golden_bits(n):
    # each sample is one (Z, W) pair of the seeded draw, as in metric_sweep
    zw = np.random.default_rng(0).normal(size=(1000, 2, n, 4))
    metric = metric_identity_residual(zw[:, 0], zw[:, 1])
    ab = np.random.default_rng(0).normal(size=(1000, 2, n - 1, 4))
    s1, s2 = quotient_factor_check(ab[:, 0], ab[:, 1])
    assert (math.fsum(metric).hex(), math.fsum(np.abs(s1 - 2.0 * s2)).hex()) \
        == SCALAR_SUMS_SEED0[n]


@pytest.mark.parametrize("seed", [0, 1, 7, 11])
@pytest.mark.parametrize("n", [2, 3])
def test_ostar_sweep_matches_scalar_counts(n, seed):
    assert ostar_sweep(n, 100, seed) == (200, 200)
