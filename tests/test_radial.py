"""Radial-sector tests.

Oracles used here and nowhere else:

* explicit Laguerre sum L^a_m(x) = sum_i (-1)^i C(m+a, m-i) x^i / i!
  and scipy's eval_genlaguerre, both independent of the recurrence;
* composite Gauss-Legendre quadrature of the sampled profiles on a
  domain sized from the state, against the library's closed-form norms;
* the bare profiles as plain float products t^ell L e^(-t/nu), and the
  log of the closed-form norm through math.lgamma, against the library's
  log-space evaluation;
* a second-order central-difference application of the radial operator,
  independent of the analytic-derivative route inside the library.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from qkepler.quadrature import composite_gauss_legendre
from qkepler.radial import (
    MiczReport,
    RadialGrid,
    RadialState,
    UnderResolved,
    default_t_max,
    eigensolve,
    kepler_residual,
    laguerre,
    micz_check,
    orthogonality_check,
    oscillator_eigenvalue,
    oscillator_eigenvalue_exact,
    oscillator_profile,
    oscillator_residual,
    radial_norm2_rho,
    radial_norm2_t,
    radial_rho,
    radial_t,
    twist_profile,
)
from qkepler.spectral import ModelParams, energy


def lag_sum(a, m, x):
    return sum((-1) ** i * math.comb(m + a, m - i) * x ** i / math.factorial(i)
               for i in range(m + 1))


def norm2_by_quadrature(s, coordinate):
    """Squared norm of the sampled bare profile, integrated here.

    The cutoff sits well past the turning point of x = 2t/nu, at
    2.5 (a + 2m + 1) + 30, with one 16-point panel per 1.5 in x.
    """
    n = s.params.n
    a, m = s.laguerre_index, s.laguerre_degree
    x_max = 2.5 * (a + 2 * m + 1) + 30.0
    t_max = float(s.nu) * x_max / 2.0
    panels = max(24, math.ceil(x_max / 1.5))
    if coordinate == "t":
        return composite_gauss_legendre(
            lambda t: radial_t(s, t) ** 2 * t ** (2 * n),
            0.0, t_max, order=16, panels=panels)
    return composite_gauss_legendre(
        lambda rho: radial_rho(s, rho) ** 2 * rho ** (4 * n - 4),
        0.0, math.sqrt(t_max), order=16, panels=panels)


def log_norm2_t(s):
    """log of (nu/2)^(a+2) * 2 nu * (a+m)!/m! in floats, via lgamma."""
    nu = float(s.nu)
    a, m = s.laguerre_index, s.laguerre_degree
    return ((a + 2) * math.log(nu / 2.0) + math.log(2.0 * nu)
            + math.lgamma(a + m + 1) - math.lgamma(m + 1))


# ---------------------------------------------------------------------------
# states and grids


def test_radial_state_properties():
    s = RadialState(ModelParams(2, 1), 3, 2)
    assert s.I == 4
    assert s.two_ell == 5
    assert s.ell == Fraction(5, 2)
    assert s.nu == Fraction(13, 2)
    assert s.laguerre_index == 8
    assert s.laguerre_degree == 2
    assert s.oscillator_level == 13


def test_radial_state_validation():
    p = ModelParams(2, 0)
    with pytest.raises(ValueError):
        RadialState(p, 0, 0)
    with pytest.raises(ValueError):
        RadialState(p, 1, -1)


def test_radial_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(np.array([1.0]), 4)
    with pytest.raises(ValueError):
        RadialGrid(np.array([0.0, 1.0]), 4)
    with pytest.raises(ValueError):
        RadialGrid(np.array([1.0, 1.0]), 4)
    g = RadialGrid.uniform(0.5, 2.0, 4, 4)
    assert g.points.shape == (4,)
    assert g.weight_exponent == 4


# ---------------------------------------------------------------------------
# Laguerre recurrence against two oracles


@pytest.mark.parametrize("a", [0, 1, 3, 7])
@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
def test_laguerre_against_explicit_sum(a, m):
    x = np.linspace(0.0, 30.0, 40)
    expected = np.array([lag_sum(a, m, xi) for xi in x])
    np.testing.assert_allclose(laguerre(a, m, x), expected,
                               rtol=1e-9, atol=1e-9)


def test_laguerre_against_scipy():
    rng = np.random.default_rng(17)
    for _ in range(25):
        a = int(rng.integers(0, 10))
        m = int(rng.integers(0, 12))
        x = rng.uniform(0.0, 40.0, size=12)
        np.testing.assert_allclose(laguerre(a, m, x),
                                   eval_genlaguerre(m, a, x),
                                   rtol=1e-8, atol=1e-8)


def test_laguerre_scalar_and_validation():
    assert laguerre(2, 0, 1.5) == 1.0
    assert laguerre(1, 1, 0.5) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        laguerre(1, -1, 0.5)


def test_laguerre_derivative_identity():
    # d/dx L^a_m = -L^{a+1}_{m-1}, checked by central differences
    x = np.linspace(0.5, 12.0, 25)
    h = 1e-6
    for a, m in [(2, 3), (5, 6), (0, 4)]:
        fd = (laguerre(a, m, x + h) - laguerre(a, m, x - h)) / (2 * h)
        np.testing.assert_allclose(fd, -laguerre(a + 1, m - 1, x),
                                   rtol=1e-7, atol=1e-6)


# ---------------------------------------------------------------------------
# profiles, norms, coordinate change


def states(n_values=(2, 3), smax=2, kmax=3, lmax=2):
    for n in n_values:
        for sb in range(smax + 1):
            p = ModelParams(n, sb)
            for k in range(1, kmax + 1):
                for l in range(lmax + 1):
                    yield RadialState(p, k, l)


def test_profile_coordinate_change_exact():
    rho = np.linspace(0.3, 3.0, 50)
    for s in states():
        lhs = radial_t(s, rho ** 2)
        rhs = radial_rho(s, rho) / rho ** 2.5
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_normalized_profiles_differ_by_sqrt2():
    rho = np.linspace(0.4, 2.5, 30)
    s = RadialState(ModelParams(2, 1), 2, 1)
    lhs = radial_rho(s, rho, normalized=True) / rho ** 2.5
    rhs = math.sqrt(2.0) * radial_t(s, rho ** 2, normalized=True)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_profile_input_validation():
    s = RadialState(ModelParams(2, 0), 1, 0)
    for fun in (radial_t, radial_rho, oscillator_profile, twist_profile):
        with pytest.raises(ValueError):
            fun(s, 0.0)
        with pytest.raises(ValueError):
            fun(s, np.array([1.0, -2.0]))


def test_norm_quadrature_against_closed_form():
    for s in states(smax=3, kmax=4, lmax=3):
        got = norm2_by_quadrature(s, "t")
        want = float(radial_norm2_t(s))
        assert abs(got - want) / want < 1e-10


def test_t_and_rho_norms_ratio_two():
    for s in states():
        assert radial_norm2_t(s) == 2 * radial_norm2_rho(s)
        got = norm2_by_quadrature(s, "rho")
        want = float(radial_norm2_rho(s))
        assert abs(got - want) / want < 1e-10
        ratio = norm2_by_quadrature(s, "t") / got
        assert ratio == pytest.approx(2.0, rel=1e-10)


def test_norm_is_exact():
    # n = 2, sigma_bar = 0, k = 1, l = 0: R = exp(-t/2) and
    # the integral of t^4 exp(-t) over t > 0 is 4! = 24
    s = RadialState(ModelParams(2, 0), 1, 0)
    assert radial_norm2_t(s) == Fraction(24)
    assert radial_norm2_rho(s) == Fraction(12)
    # far past the double range (about e^846), still exact
    big = radial_norm2_t(RadialState(ModelParams(6, 10), 40, 40))
    assert isinstance(big, Fraction)
    assert math.log(big.numerator) - math.log(big.denominator) > 840.0


CLI_GRID = np.linspace(0.2, 10.0, 9)  # wavefunction --lo, --hi, --points


@given(n=st.integers(2, 8), sigma_bar=st.integers(0, 12),
       k=st.integers(1, 40), l=st.integers(0, 40))
@example(n=6, sigma_bar=10, k=40, l=40)  # squared norm about e^846
@settings(max_examples=150, deadline=None)
def test_log_space_profiles_match_direct_products(n, sigma_bar, k, l):
    s = RadialState(ModelParams(n, sigma_bar), k, l)
    nu, ell = float(s.nu), float(s.ell)
    a, m = s.laguerre_index, s.laguerre_degree
    x = CLI_GRID
    t_bare = x ** ell * laguerre(a, m, 2 * x / nu) * np.exp(-x / nu)
    rho_bare = (x ** (2 * ell + 2.5) * laguerre(a, m, 2 * x * x / nu)
                * np.exp(-x * x / nu))
    log_n = log_norm2_t(s)
    for got, bare, log_norm2 in (
            (radial_t(s, x), t_bare, 0.0),
            (radial_rho(s, x), rho_bare, 0.0),
            (radial_t(s, x, normalized=True), t_bare, log_n),
            (radial_rho(s, x, normalized=True), rho_bare,
             log_n - math.log(2.0))):
        assert np.all(np.isfinite(got))
        want = np.sign(bare) * np.exp(np.log(np.abs(bare)) - 0.5 * log_norm2)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_normalized_scalar_value():
    s = RadialState(ModelParams(2, 0), 1, 0)
    v = radial_t(s, 1.0, normalized=True)
    assert isinstance(v, float)
    assert v == pytest.approx(radial_t(s, 1.0) / math.sqrt(radial_norm2_t(s)))


def test_node_count_matches_radial_number():
    # Sturm oscillation: the k-th state has k-1 interior sign changes
    for s in states(n_values=(2,), smax=2, kmax=5, lmax=1):
        # all zeros of L^a_m sit below 4m + 2a + 4
        x_hi = 4 * s.laguerre_degree + 2 * s.laguerre_index + 4
        t_hi = float(s.nu) * x_hi / 2
        t = np.linspace(1e-3, t_hi, 4000)
        vals = radial_t(s, t)
        signs = np.sign(vals)
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes == s.k - 1


# ---------------------------------------------------------------------------
# the eigenvalue equation, two independent routes


def test_kepler_residual_analytic_small():
    grid = RadialGrid.uniform(0.1, 40.0, 400, 4)
    for s in states():
        grid_s = RadialGrid.uniform(0.1, 40.0, 400, 2 * s.params.n)
        assert kepler_residual(s, grid_s) < 1e-10
    del grid


def test_kepler_equation_by_finite_differences():
    # independent route: second-order central differences on the bare
    # profile; confirms operator, eigenvalue and profile together
    h = 1e-3
    t = np.linspace(0.5, 12.0, 150)
    for s in states(n_values=(2, 3), smax=2, kmax=2, lmax=1):
        n = s.params.n
        ell = float(s.ell)
        R0 = radial_t(s, t)
        Rp = (radial_t(s, t + h) - radial_t(s, t - h)) / (2 * h)
        Rpp = (radial_t(s, t + h) - 2 * R0 + radial_t(s, t - h)) / h ** 2
        LR = (-0.5 * (Rpp + 2 * n / t * Rp)
              + ell * (ell + 2 * n - 1) / (2 * t ** 2) * R0 - R0 / t)
        E = float(energy(s.params, s.I))
        resid = np.max(np.abs(LR - E * R0)) / np.max(np.abs(R0))
        assert resid < 5e-5


def test_wrong_channel_fails_finite_difference_route():
    # negative control: the l+1 potential applied to the l profile leaves
    # a visible residual, so the equation check cannot pass vacuously
    s = RadialState(ModelParams(2, 0), 2, 0)
    h = 1e-3
    t = np.linspace(0.5, 12.0, 150)
    n = 2
    wrong_ell = 1.0
    R0 = radial_t(s, t)
    Rp = (radial_t(s, t + h) - radial_t(s, t - h)) / (2 * h)
    Rpp = (radial_t(s, t + h) - 2 * R0 + radial_t(s, t - h)) / h ** 2
    LR = (-0.5 * (Rpp + 2 * n / t * Rp)
          + wrong_ell * (wrong_ell + 2 * n - 1) / (2 * t ** 2) * R0 - R0 / t)
    E = float(energy(s.params, s.I))
    resid = np.max(np.abs(LR - E * R0)) / np.max(np.abs(R0))
    assert resid > 1e-2


# ---------------------------------------------------------------------------
# discretized eigensolver


def test_eigensolve_matches_exact_spectrum():
    p = ModelParams(2, 1)
    vals = eigensolve(p, 0, grid_size=2000, count=3)
    for i, v in enumerate(vals):
        exact = float(energy(p, i))
        assert abs(v - exact) / abs(exact) < 1e-4


def test_eigensolve_convergence_under_refinement():
    p = ModelParams(2, 0)
    exact = float(energy(p, 0))
    errs = [abs(eigensolve(p, 0, grid_size=g, count=1)[0] - exact)
            for g in (600, 1200, 2400)]
    assert errs[0] > errs[1] > errs[2]
    # second-order stencil: halving h divides the error by about four
    assert errs[0] / errs[1] > 3.0


def test_eigensolve_validation():
    p = ModelParams(2, 0)
    with pytest.raises(ValueError):
        eigensolve(p, 0, grid_size=499)
    with pytest.raises(ValueError):
        eigensolve(p, 0, count=0)
    with pytest.raises(ValueError):
        eigensolve(p, 0, count=6)
    with pytest.raises(ValueError):
        eigensolve(p, 0, t_max=-1.0)


def test_eigensolve_detects_truncated_domain():
    p = ModelParams(2, 0)
    with pytest.raises(UnderResolved, match="t_max"):
        eigensolve(p, 2, grid_size=1500, t_max=40.0, count=3)
    # still a ValueError for callers that catch those
    assert issubclass(UnderResolved, ValueError)


def test_default_t_max_floor():
    assert default_t_max(ModelParams(2, 0), 0, 1) == 60.0
    assert default_t_max(ModelParams(3, 2), 2, 3) > 60.0


# ---------------------------------------------------------------------------
# oscillator side and the twist


def test_oscillator_residual_small():
    for s in states():
        grid = RadialGrid.uniform(0.1, 6.0, 300, 4 * s.params.n - 1)
        assert oscillator_residual(s, grid) < 1e-10


def test_oscillator_eigenvalue_readbacks():
    grid = RadialGrid.uniform(0.1, 6.0, 300, 7)
    for s in states(n_values=(2, 3), smax=2, kmax=4, lmax=2):
        level = s.oscillator_level
        assert oscillator_eigenvalue_exact(s) == level
        g = RadialGrid.uniform(0.1, 6.0, 300, 4 * s.params.n - 1)
        assert oscillator_eigenvalue(s, g) == pytest.approx(level, rel=1e-10)
    del grid


def test_oscillator_exact_readback_at_chosen_points():
    s = RadialState(ModelParams(3, 1), 4, 2)
    for x in (2, Fraction(5, 7), Fraction(13, 4)):
        assert oscillator_eigenvalue_exact(s, x) == s.oscillator_level
    with pytest.raises(ValueError):
        oscillator_eigenvalue_exact(s, Fraction(-1, 2))


def test_twist_ratio_is_constant():
    r = np.linspace(0.2, 5.0, 200)
    for s in states():
        ratio = twist_profile(s, r) / oscillator_profile(s, r)
        scaled = ratio / np.mean(ratio)
        assert float(np.var(scaled)) < 1e-20


def test_twist_constant_agrees_between_windows():
    s = RadialState(ModelParams(2, 2), 3, 1)
    r1 = np.linspace(0.2, 1.0, 50)
    r2 = np.linspace(3.0, 5.0, 50)
    c1 = np.mean(twist_profile(s, r1) / oscillator_profile(s, r1))
    c2 = np.mean(twist_profile(s, r2) / oscillator_profile(s, r2))
    assert c1 == pytest.approx(c2, rel=1e-12)


# ---------------------------------------------------------------------------
# the n = 2 reduction


def test_micz_report_passes():
    for sb in (0, 1, 3):
        rep = micz_check(sb, i_max=10)
        assert isinstance(rep, MiczReport)
        assert rep.spectrum_exact
        assert max(rep.operator_residuals) < 1e-6
        assert rep.centrifugal_deviation < 1e-6
        assert rep.passed


def test_micz_validation():
    with pytest.raises(ValueError):
        micz_check(-1)
    with pytest.raises(ValueError):
        micz_check(0, r_grid=np.array([0.01, 1.0]))


def test_micz_custom_function():
    rep = micz_check(2, test_functions=[lambda r: np.exp(-r) * r ** 3])
    assert len(rep.operator_residuals) == 1
    assert rep.passed


# ---------------------------------------------------------------------------
# orthonormality


def test_gram_matrix_is_identity():
    p = ModelParams(2, 0)
    G = orthogonality_check(p, 0, k_max=6)
    assert G.shape == (6, 6)
    assert np.max(np.abs(G - np.eye(6))) < 1e-8


@pytest.mark.parametrize("sigma_bar, l", [(1, 0), (2, 2), (0, 1)])
def test_gram_matrix_other_channels(sigma_bar, l):
    p = ModelParams(2, sigma_bar)
    G = orthogonality_check(p, l, k_max=5)
    assert np.max(np.abs(G - np.eye(5))) < 1e-8


def test_gram_asymmetry_is_under_resolution():
    with pytest.raises(UnderResolved, match="asymmetry"):
        orthogonality_check(ModelParams(2, 0), 0, k_max=6, quadrature=2)


def test_orthogonality_validation():
    p = ModelParams(2, 0)
    with pytest.raises(ValueError):
        orthogonality_check(p, 0, k_max=9)
    with pytest.raises(ValueError):
        orthogonality_check(p, 0, k_max=0)
    with pytest.raises(ValueError):
        orthogonality_check(p, 0, quadrature=0)
