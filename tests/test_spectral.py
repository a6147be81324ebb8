from fractions import Fraction

import math

import pytest

from qkepler import spectral
from qkepler.laurent import Laurent
from qkepler.rep import HighestWeight, RootSystem, weyl_dim
from qkepler.spectral import (
    MiczReport,
    ModelParams,
    degeneracy,
    dimension_equality_check,
    energy,
    energy_kl,
    genfunc_check,
    hspace_weight,
    ktype_dim_check,
    ktype_weight,
    micz_check,
    oscillator_level_dim,
    _series_inverse_one_minus_t_pow,
)


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 0)
    with pytest.raises(ValueError):
        ModelParams(2, -1)
    with pytest.raises(ValueError):
        energy_kl(ModelParams(2, 0), 0, 0)
    with pytest.raises(ValueError):
        energy_kl(ModelParams(2, 0), 1, -1)


@pytest.mark.parametrize("n, sigma_bar, I, expected", [
    (2, 0, 0, Fraction(-1, 8)),
    (2, 0, 1, Fraction(-1, 18)),
    (2, 0, 2, Fraction(-1, 32)),
    (2, 1, 0, Fraction(-2, 25)),
    (3, 0, 0, Fraction(-1, 18)),
    (3, 2, 0, Fraction(-1, 32)),
])
def test_energy_frozen(n, sigma_bar, I, expected):
    assert energy(ModelParams(n, sigma_bar), I) == expected


def test_energy_validation():
    with pytest.raises(ValueError):
        energy(ModelParams(2, 0), -1)


def test_energy_monotone_and_bounded():
    p = ModelParams(3, 1)
    vals = [energy(p, I) for I in range(30)]
    assert all(v < 0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > Fraction(-1, 1000)


@pytest.mark.parametrize("n, sigma_bar, degs", [
    (2, 0, [1, 6, 20, 50]),
    (2, 1, [4, 20]),
    (3, 0, [1, 15]),
])
def test_degeneracy_frozen(n, sigma_bar, degs):
    p = ModelParams(n, sigma_bar)
    assert [degeneracy(p, I) for I in range(len(degs))] == degs


def test_degeneracy_validation():
    with pytest.raises(ValueError):
        degeneracy(ModelParams(2, 0), -1)


def test_oscillator_level_dim_frozen():
    assert oscillator_level_dim(2, 0) == 1
    assert oscillator_level_dim(2, 1) == 8
    assert oscillator_level_dim(2, 2) == 36
    assert oscillator_level_dim(3, 2) == 78
    assert oscillator_level_dim(2, 3) == math.comb(10, 7)
    with pytest.raises(ValueError):
        oscillator_level_dim(2, -1)


def test_dimension_equality_spot_value():
    chk = dimension_equality_check(2, 2)
    assert (chk.lhs, chk.rhs, chk.passed) == (36, 36, True)


def test_series_inversion_small():
    # (1-t)^{-8} starts 1, 8, 36, 120
    assert _series_inverse_one_minus_t_pow(8, 3) == [1, 8, 36, 120]
    # the geometric series itself
    assert _series_inverse_one_minus_t_pow(1, 4) == [1, 1, 1, 1, 1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_genfunc_triple_agreement(n):
    chk = genfunc_check(n, 12)
    assert chk.passed
    assert chk.coefficients[0] == 1
    assert chk.coefficients[1] == 4 * n
    with pytest.raises(ValueError):
        genfunc_check(n, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_genfunc_running_sums_equal_the_level_sums(n):
    # one running degeneracy sum per sigma_bar against each level alone
    chk = genfunc_check(n, 40)
    assert list(chk.coefficients) == [
        dimension_equality_check(n, k).lhs for k in range(41)]
    assert chk.passed


def test_ktype_weight_frozen():
    p = ModelParams(2, 0)
    assert ktype_weight(p, 1).entries == (-1, -1, -2, -2)
    p = ModelParams(2, 3)
    assert ktype_weight(p, 2).entries == (-1, -1, -3, -6)
    with pytest.raises(ValueError):
        ktype_weight(p, -1)


def test_ktype_weight_entry_sum_is_oscillator_level():
    for n in (2, 3):
        for sigma_bar in range(4):
            p = ModelParams(n, sigma_bar)
            for I in range(6):
                total = -sum(ktype_weight(p, I).entries)
                assert total == 2 * I + sigma_bar + 2 * n


def test_hspace_weight_is_level_zero_ktype():
    for n in (2, 3):
        for sigma_bar in range(4):
            p = ModelParams(n, sigma_bar)
            assert hspace_weight(p) == ktype_weight(p, 0)


def test_ktype_dim_check_spot_values():
    chk = ktype_dim_check(ModelParams(2, 0), 1)
    assert (chk.u2n_dim, chk.sp_sum) == (6, 6)
    chk = ktype_dim_check(ModelParams(2, 1), 0)
    assert (chk.u2n_dim, chk.sp_sum) == (4, 4)


def test_ktype_weight_is_conjugate_rkappa_at_one():
    # the conjugate of (I+sbar+kappa, I+kappa, kappa, ..., kappa), kappa = 1
    for n in (2, 3):
        for sigma_bar in range(4):
            p = ModelParams(n, sigma_bar)
            for I in range(5):
                assert ktype_weight(p, I) == HighestWeight(
                    [I + sigma_bar + 1, I + 1] + [1] * (2 * n - 2)).conjugate()


def test_rkappa_dimension_matches_constituent():
    # the kappa twist shifts all entries equally, so type A dimensions of
    # the level weights agree with the conjugated ones
    rs = RootSystem("A", 3)
    for sigma_bar in range(3):
        for l in range(3):
            hw = HighestWeight([l + sigma_bar + 1, l + 1, 1, 1])
            assert weyl_dim(rs, hw) == weyl_dim(rs, hw.conjugate())


# ---------------------------------------------------------------------------
# the n = 2 reduction


def test_micz_report_passes():
    for sb in (0, 1, 3, 12):
        rep = micz_check(sb, i_max=10)
        assert isinstance(rep, MiczReport)
        assert rep.spectrum_exact
        assert rep.operator_exact == (True,) * 4
        mu = Fraction(sb, 2)
        assert rep.centrifugal == rep.charge_term == mu * mu + mu
        assert rep.identities == (True,) * 6


def test_micz_operator_identity_beyond_the_checked_powers():
    # fixed by r^0, r^1 and r^2, the identity holds on every Laurent
    # polynomial, half-integer powers included
    phi = Laurent({-3: 2, Fraction(1, 2): Fraction(-5, 7), 4: 1, 9: 3})
    for sb in range(5):
        assert spectral._micz_transformed(phi, sb) \
            == spectral._micz_radial(phi, sb).at_power(2)
        assert spectral._micz_transformed(phi, sb) \
            != spectral._micz_radial(phi, sb + 1).at_power(2)


def test_micz_validation():
    with pytest.raises(ValueError):
        micz_check(-1)
