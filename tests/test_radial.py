"""Radial-sector tests.

Oracles used here and nowhere else:

* explicit Laguerre sum L^a_m(x) = sum_i (-1)^i C(m+a, m-i) x^i / i!
  and scipy's eval_genlaguerre, both independent of the recurrence
  ``radial._laguerre`` that the profiles run;
* composite Gauss-Legendre quadrature, on a domain sized from the state,
  of the bare profiles as one numpy expression each, which first match
  the library's profiles at six points per state, against the library's
  closed-form norms;
* the bare profiles as plain float products t^ell L e^(-t/nu), L from
  eval_genlaguerre, and the log of the closed-form norm through
  math.lgamma, against the library's log-space evaluation;
* a second-order central-difference application of the Kepler and the
  oscillator operators, independent of the reduced operators inside the
  library, which the exact identities and the float residuals share; the
  oscillator profile r^L L e^(-r^2/2) is a plain float product here too;
* the Laguerre-Galerkin pencil as a dense float matrix, solved by
  numpy's eigvalsh, against the library's exact integer Sturm counts.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from qkepler import checks, radial
from qkepler.cli import run
from qkepler.quadrature import composite_gauss_legendre
from qkepler.radial import (
    RadialGrid,
    RadialState,
    UnderResolved,
    default_t_max,
    eigensolve,
    gram_identities,
    kepler_ode,
    kepler_residual,
    laguerre_certified,
    oscillator_ode,
    oscillator_residual,
    radial_norm2_rho,
    radial_norm2_t,
    radial_rho,
    radial_t,
)
from qkepler.spectral import ModelParams, energy


def lag_sum(a, m, x):
    return sum((-1) ** i * math.comb(m + a, m - i) * x ** i / math.factorial(i)
               for i in range(m + 1))


def profile(s, coordinate, hi):
    """The bare profile of ``s`` as one numpy expression, x^power
    L^a_m(2u/nu) e^(-u/nu) with L from eval_genlaguerre: u = x and
    power = ell in t, u = x^2 and power = 2 ell + 5/2 in rho.  It must
    first match the library's profile to 1e-10 at six points of (0, hi]."""
    nu, ell = float(s.nu), float(s.ell)
    a, m = s.laguerre_index, s.laguerre_degree
    rho = coordinate == "rho"
    power = 2 * ell + 2.5 if rho else ell

    def bare(x):
        u = x * x if rho else x
        return x ** power * eval_genlaguerre(m, a, 2 * u / nu) * np.exp(-u / nu)
    probe = np.linspace(0.0, hi, 7)[1:]
    library = radial_rho if rho else radial_t
    np.testing.assert_allclose(bare(probe), library(s, probe), rtol=1e-10,
                               atol=0.0)
    return bare


def norm2_by_quadrature(s, coordinate):
    """Squared norm of the bare profile, integrated here.

    The cutoff sits well past the turning point of x = 2t/nu, at
    2.5 (a + 2m + 1) + 30, with one 16-point panel per 1.5 in x.
    """
    n = s.params.n
    a, m = s.laguerre_index, s.laguerre_degree
    x_max = 2.5 * (a + 2 * m + 1) + 30.0
    t_max = float(s.nu) * x_max / 2.0
    panels = max(24, math.ceil(x_max / 1.5))
    if coordinate == "t":
        bare = profile(s, "t", t_max)
        return composite_gauss_legendre(
            lambda t: bare(t) ** 2 * t ** (2 * n),
            0.0, t_max, order=16, panels=panels)
    bare = profile(s, "rho", math.sqrt(t_max))
    return composite_gauss_legendre(
        lambda rho: bare(rho) ** 2 * rho ** (4 * n - 4),
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
    # nan compares false with everything, so only a finiteness test
    # catches it; inf would reach the residual as nan
    for bad in ([0.1, np.nan, 1.0], [0.1, 0.5, np.inf]):
        with pytest.raises(ValueError):
            RadialGrid(np.array(bad), 4)
    with pytest.raises(ValueError):
        RadialGrid(np.ones((2, 2)), 4)
    g = RadialGrid.uniform(0.5, 2.0, 4, 4)
    assert g.points.shape == (4,)
    assert g.weight_exponent == 4


# ---------------------------------------------------------------------------
# Laguerre recurrence against two oracles

laguerre = radial._laguerre


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
    # degree -1 reads 0, the value the derivative identity needs at m = 0
    assert laguerre(1, -1, 0.5) == 0.0
    assert np.all(laguerre(1, -1, np.array([0.5, 2.0])) == 0.0)


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
    for fun in (radial_t, radial_rho):
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
    t_bare = x ** ell * eval_genlaguerre(m, a, 2 * x / nu) * np.exp(-x / nu)
    rho_bare = (x ** (2 * ell + 2.5) * eval_genlaguerre(m, a, 2 * x * x / nu)
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


def test_profile_returns_follow_the_input():
    # one float at a time underneath: the same values in every container
    s = RadialState(ModelParams(3, 1), 4, 2)
    grid = np.linspace(0.5, 30.0, 12)
    want = [radial_t(s, float(x)) for x in grid]
    assert all(type(v) is float for v in want)
    got = radial_t(s, list(grid))
    assert type(got) is list and got == want
    arr = radial_t(s, grid)
    assert isinstance(arr, np.ndarray) and arr.shape == (12,)
    assert arr.tolist() == want
    square = radial_t(s, grid.reshape(3, 4))
    assert square.shape == (3, 4) and square.ravel().tolist() == want
    assert type(radial_t(s, np.float64(2.0))) is float
    assert type(radial_t(s, np.array(2.0))) is float  # 0-d reads as a number
    assert radial_t(s, np.array([])).shape == (0,)


def test_node_count_matches_radial_number():
    # Sturm oscillation: the k-th state has k-1 interior sign changes
    for s in states(n_values=(2,), smax=2, kmax=5, lmax=1):
        # all zeros of L^a_m sit below 4m + 2a + 4
        x_hi = 4 * s.laguerre_degree + 2 * s.laguerre_index + 4
        t_hi = float(s.nu) * x_hi / 2
        t = np.linspace(1e-3, t_hi, 4000)
        signs = np.sign(profile(s, "t", t_hi)(t))
        changes = int(np.sum(signs[:-1] * signs[1:] < 0))
        assert changes == s.k - 1


# ---------------------------------------------------------------------------
# the eigenvalue equation, two independent routes


def test_kepler_residual_analytic_small():
    for s in states():
        grid_s = RadialGrid.uniform(0.1, 40.0, 400, 2 * s.params.n)
        assert kepler_residual(s, grid_s) < 1e-10


def channel(s):
    """The numbers through which a state reaches its reduced operators."""
    return s.params.n, s.two_ell, s.laguerre_degree


@given(n=st.integers(2, 8), sigma_bar=st.integers(0, 12),
       k=st.integers(1, 40), l=st.integers(0, 40))
@example(n=2, sigma_bar=0, k=1, l=200)  # t^ell alone is past 1e308
@example(n=8, sigma_bar=12, k=40, l=40)
@settings(max_examples=100, deadline=None)
def test_radial_odes_hold_exactly(n, sigma_bar, k, l):
    # each identity holds at all m + 3 points, and fails for an energy off
    # by 1e-12 of itself or a level off by one
    s = RadialState(ModelParams(n, sigma_bar), k, l)
    E, lam, points = energy(s.params, s.I), s.oscillator_level, s.k + 2
    assert kepler_ode(*channel(s), E) == (points, points)
    assert oscillator_ode(*channel(s), lam) == (points, points)
    assert kepler_ode(*channel(s), E * (1 + Fraction(1, 10 ** 12)))[0] \
        < points
    assert oscillator_ode(*channel(s), lam + 1)[0] < points


def state_sized_grids(s):
    """Kepler and oscillator grids past the turning points of the state,
    to x = 2t/nu = r^2 = 2.5 (a + 2m + 1) + 30: 400 points of t from
    x = 0.05, where the cancelling centrifugal and Coulomb terms are
    within a fixed multiple of |E|, and 300 of r from 0.1."""
    cut = 2.5 * (s.laguerre_index + 2 * s.laguerre_degree + 1) + 30.0
    nu = float(s.nu)
    return (RadialGrid.uniform(nu / 40.0, nu * cut / 2.0, 400, 2 * s.params.n),
            RadialGrid.uniform(0.1, math.sqrt(cut), 300, 4 * s.params.n - 1))


@given(n=st.integers(2, 8), sigma_bar=st.integers(0, 12),
       k=st.integers(1, 40), l=st.integers(0, 40))
@example(n=2, sigma_bar=0, k=1, l=200)  # t^ell alone is past 1e308
@example(n=8, sigma_bar=12, k=40, l=200)
@example(n=5, sigma_bar=1, k=40, l=0)  # 4.6e-10 on a grid from t = 0.1
@settings(max_examples=100, deadline=None)
def test_residuals_on_state_sized_grids(n, sigma_bar, k, l):
    # the float kernel the benchmark times, on the multiplied-through
    # operators: the worst Kepler residual over 3000 random states in
    # range is 2.2e-11, at (2, 4, 40, 0)
    s = RadialState(ModelParams(n, sigma_bar), k, l)
    kepler_grid, oscillator_grid = state_sized_grids(s)
    for resid in (kepler_residual(s, kepler_grid),
                  oscillator_residual(s, oscillator_grid)):
        assert math.isfinite(resid) and resid < 1e-10


def coulomb_halved(original):
    """The Kepler operator with -1/(2t) in place of -1/t: its term
    -8tV^2 P of 2D^2 H~P read as -4tV^2 P."""
    def reduced(t, n, two_ell, m):
        P, HP = original(t, n, two_ell, m)
        V = two_ell + 2 * (m + n)
        return P, HP + 4 * t * V * V * P
    return reduced


def potential_doubled(original):
    """The oscillator with r^2 in place of r^2/2: its term x^2 P of
    2x H~P read as 2x^2 P."""
    def reduced(x, n, L, m):
        P, HP = original(x, n, L, m)
        return P, HP + x * x * P
    return reduced


@pytest.mark.parametrize("attr, mutant, ode", [
    ("_kepler_reduced", coulomb_halved, "kepler"),
    ("_oscillator_reduced", potential_doubled, "oscillator"),
], ids=["kepler-coulomb", "oscillator-potential"])
def test_identities_fail_for_a_one_term_operator_mutant(attr, mutant, ode,
                                                        monkeypatch):
    monkeypatch.setattr(radial, attr, mutant(getattr(radial, attr)))
    for s in states(smax=3, kmax=4, lmax=3):
        if ode == "kepler":
            held, points = kepler_ode(*channel(s), energy(s.params, s.I))
        else:
            held, points = oscillator_ode(*channel(s), s.oscillator_level)
        assert held < points
    assert run(["verify", "residuals"]) == 1


def test_residual_check_evaluates_each_channel_once(monkeypatch):
    # per n, 80 states fall into 50 channels (n, 2 ell, m): 10 values of
    # 2 ell and 5 of m, each with one energy and one level
    calls = {"kepler_ode": [], "oscillator_ode": []}

    def counted(name, fun):
        def wrapper(*args):
            calls[name].append(args[:3])
            return fun(*args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(radial, name, counted(name, getattr(radial, name)))
    assert all(r.passed for r in checks.residuals())
    for args in calls.values():
        assert len(args) == len(set(args)) == 100


def test_kepler_residual_is_scale_free(monkeypatch):
    # at nu = 202, E = -1.2e-5: an energy off by 1e-4 of itself must read
    # 1e-4, not 1e-4 |E| (which passed the 1e-8 bound before); the grid
    # reaches past the turning point 2 nu^2, where t^200 is past 1e308
    s = RadialState(ModelParams(2, 0), 1, 200)
    grid = RadialGrid.uniform(5.0, 105040.0, 400, 4)
    assert kepler_residual(s, grid) < 1e-12
    monkeypatch.setattr(radial, "energy",
                        lambda p, I: energy(p, I) * Fraction(10001, 10000))
    assert kepler_residual(s, grid) == pytest.approx(1e-4, rel=1e-3)


def test_kepler_reduced_operator_is_exact_at_rational_points():
    # the reduced operator follows its input: at an int t it returns ints,
    # and 2D^2 H~P = 2D^2 E P with no rounding, D = 2tV
    for s in states(smax=3, kmax=4, lmax=3):
        V = int(2 * s.nu)
        for t in (1, 7, 11, 40):
            P, HP = radial._kepler_reduced(t, *channel(s))
            assert isinstance(P, int) and isinstance(HP, int)
            assert HP == 2 * (2 * t * V) ** 2 * energy(s.params, s.I) * P


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


def test_eigensolve_detects_truncated_domain(monkeypatch):
    p = ModelParams(2, 0)
    monkeypatch.setattr(radial, "default_t_max", lambda p, l, count: 40.0)
    with pytest.raises(UnderResolved, match="t_max=40 too small"):
        eigensolve(p, 2, grid_size=1500, count=3)
    # still a ValueError for callers that catch those
    assert issubclass(UnderResolved, ValueError)


def test_default_t_max_floor():
    assert default_t_max(ModelParams(2, 0), 0, 1) == 60.0
    assert default_t_max(ModelParams(3, 2), 2, 3) > 60.0


# ---------------------------------------------------------------------------
# Laguerre-Galerkin levels


def pencil_levels(two_lam, size):
    """The Ritz values mu of J' y = mu diag(j) y, j = 1 .. size - 1, in
    floats, largest first: the eigenvalues of the dense symmetric
    diag(j)^(-1/2) J' diag(j)^(-1/2), built here from the closed form."""
    j = np.arange(1.0, size)
    diag = (2 * j + two_lam + 2) / j
    diag[:1] = two_lam + 3
    off = np.sqrt((j[:-1] + two_lam + 2) / j[:-1])
    A = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(A)[::-1]


def count_above(two_lam, size, mu):
    """The library's exact count of the Ritz values above mu."""
    return radial._ritz_above(radial._pencil(two_lam, size), mu)


@given(two_lam=st.integers(0, 106), size=st.integers(2, 60),
       mu=st.fractions(Fraction(1, 10 ** 6), 250, max_denominator=10 ** 9))
@settings(max_examples=300, deadline=None)
def test_ritz_count_matches_the_float_oracle(two_lam, size, mu):
    # the Ritz values lie in (0, 2 lambda + 6)
    levels = pencil_levels(two_lam, size)
    # away from every Ritz value, the float count is sure
    if np.min(np.abs(levels - float(mu))) > 1e-8 * float(mu):
        assert count_above(two_lam, size, mu) \
            == np.count_nonzero(levels > float(mu))


@pytest.mark.parametrize("two_lam", [0, 1, 2, 7, 106])
def test_ritz_count_between_and_at_the_ritz_values(two_lam):
    for size in (2, 3, 8, 30):
        levels = pencil_levels(two_lam, size)
        # every count 0 .. size - 1, at points between the Ritz values
        cuts = [levels[0] * 2, *(levels[:-1] + levels[1:]) / 2,
                levels[-1] / 2]
        assert [count_above(two_lam, size, Fraction(c))
                for c in cuts] == list(range(size))
    # at size 2 the one Ritz value is 2 lambda + 3: the last minor is 0,
    # and a value equal to mu is not above it
    mu = Fraction(two_lam + 3)
    assert count_above(two_lam, 2, mu) == 0
    assert count_above(two_lam, 2, mu - Fraction(1, 10 ** 30)) == 1
    # at a larger size the first minor is 0 there, and the rest read on
    for size in (3, 5, 20):
        assert count_above(two_lam, size, mu) \
            == np.count_nonzero(pencil_levels(two_lam, size) > float(mu))


def level_energies(p, l, count):
    return [energy(p, l + i) for i in range(count)]


def two_lam_of(p, l):
    return RadialState(p, 1, l).laguerre_index - 1


@given(n=st.integers(2, 8), sigma_bar=st.integers(0, 12),
       l=st.integers(0, 40), count=st.integers(1, 5))
@example(n=2, sigma_bar=0, l=0, count=5)  # the largest basis, 56
@example(n=2, sigma_bar=1, l=0, count=5)  # half-integer lambda
@example(n=8, sigma_bar=12, l=40, count=5)
@settings(max_examples=150, deadline=None)
def test_laguerre_eigenvalues_match_exact_spectrum(n, sigma_bar, l, count):
    p = ModelParams(n, sigma_bar)
    two_lam, energies = two_lam_of(p, l), level_energies(p, l, count)
    assert laguerre_certified(two_lam, energies, checks.EIGENSOLVE_TOL) \
        == [True] * count
    # the float oracle reads the same levels
    kappa2 = 4 / (two_lam + 2) ** 2
    mu = pencil_levels(two_lam, radial._laguerre_size(two_lam, count))
    vals = kappa2 * (2 / mu[:count - 1] - 0.5)
    exact = np.array([float(e) for e in energies[1:]])
    assert np.all(np.abs(vals - exact) <= 1e-10 * np.abs(exact))


def test_laguerre_route_sits_at_the_rounding_floor():
    # every distinct channel 2 lambda = 2 .. 106 (n = 2, l = 0, sigma_bar =
    # 2 lambda - 2) and count <= 5: each level certifies at 1e-13, and at
    # the gate's bound
    for two_lam in range(2, 107):
        p = ModelParams(2, two_lam - 2)
        for count in range(1, 6):
            energies = level_energies(p, 0, count)
            for tol in (1e-13, checks.EIGENSOLVE_TOL):
                assert laguerre_certified(two_lam, energies, tol) \
                    == [True] * count
        # one basis function, the ground state: an empty reduced pencil
        assert radial._laguerre_size(two_lam, 1) == 1


@pytest.mark.parametrize("two_lam", [2, 9, 106])
@pytest.mark.parametrize("factor", [
    1 + Fraction(1, 10 ** 12), 1 - Fraction(1, 10 ** 12),
    Fraction(-1), Fraction(0)])
def test_laguerre_levels_fail_off_the_exact_energy(two_lam, factor):
    # a level 1e-12 of itself below the exact one, or above it, is outside
    # the enclosure at 1e-13; so is one at or above zero.  Level 0 is an
    # identity
    energies = level_energies(ModelParams(2, two_lam - 2), 0, 5)
    for i in range(5):
        off = [e * factor if k == i else e for k, e in enumerate(energies)]
        certified = laguerre_certified(two_lam, off, 1e-13)
        assert certified == [k != i for k in range(5)]


def test_laguerre_levels_at_or_below_the_ground_state_fail():
    # E_1 at or below -kappa^2/2 has no mu > 0: a failed level, no raise
    energies = level_energies(ModelParams(2, 0), 0, 3)
    for e1 in (energies[0], 2 * energies[0]):
        assert laguerre_certified(2, [energies[0], e1, energies[2]],
                                  1e-10) == [True, False, True]


def test_laguerre_eigenvalues_validation():
    energies = level_energies(ModelParams(2, 0), 0, 6)
    with pytest.raises(ValueError):
        laguerre_certified(2, [], 1e-10)
    with pytest.raises(ValueError):
        laguerre_certified(2, energies, 1e-10)
    with pytest.raises(ValueError):
        laguerre_certified(-1, energies[:3], 1e-10)


# ---------------------------------------------------------------------------
# oscillator side and the twist


def test_oscillator_residual_small():
    for s in states():
        grid = RadialGrid.uniform(0.1, 6.0, 300, 4 * s.params.n - 1)
        assert oscillator_residual(s, grid) < 1e-10


def test_oscillator_eigenvalue_readbacks():
    # the identity reads the level back: it holds at 2I + sigma_bar + 2n
    # and at no other integer near it
    for s in states(n_values=(2, 3), smax=2, kmax=4, lmax=2):
        level, points = s.oscillator_level, s.k + 2
        for lam in range(level - 3, level + 4):
            held, _ = oscillator_ode(*channel(s), lam)
            assert (held == points) == (lam == level)


def oscillator_profile(s, r):
    """The bare oscillator profile r^L L^a_m(r^2) e^(-r^2/2), L = 2 ell, as
    a plain float product."""
    return (r ** s.two_ell * eval_genlaguerre(s.laguerre_degree,
                                              s.laguerre_index, r * r)
            * np.exp(-r * r / 2))


def oscillator_fd_residual(s, L):
    """Relative residual of (-Lap/2 + r^2/2) f = lambda f on the channel
    with angular number L, by central differences on the bare profile."""
    n = s.params.n
    h = 1e-3
    r = np.linspace(0.5, 4.0, 150)
    f0 = oscillator_profile(s, r)
    fp = (oscillator_profile(s, r + h) - oscillator_profile(s, r - h)) / (2 * h)
    fpp = (oscillator_profile(s, r + h) - 2 * f0
           + oscillator_profile(s, r - h)) / h ** 2
    Hf = (-0.5 * (fpp + (4 * n - 1) / r * fp - L * (L + 4 * n - 2) / r ** 2 * f0)
          + 0.5 * r ** 2 * f0)
    return np.max(np.abs(Hf - s.oscillator_level * f0)) / np.max(np.abs(f0))


def test_oscillator_equation_by_finite_differences():
    # independent route: confirms operator, level and profile together
    for s in states(n_values=(2, 3), smax=2, kmax=2, lmax=1):
        assert oscillator_fd_residual(s, s.two_ell) < 5e-5


def test_wrong_channel_fails_oscillator_finite_difference_route():
    # negative control: the L+2 potential applied to the L profile
    s = RadialState(ModelParams(2, 0), 2, 0)
    assert oscillator_fd_residual(s, s.two_ell + 2) > 1e-2


def test_oscillator_exact_readback_at_chosen_points():
    # the reduced operator follows its input: at an int x = r^2 it returns
    # ints, and 2x H~P = 2x lambda P with no rounding, as on the Kepler side
    s = RadialState(ModelParams(3, 1), 4, 2)
    for x in (2, 5, 13):
        P, HP = radial._oscillator_reduced(x, *channel(s))
        assert isinstance(P, int) and isinstance(HP, int)
        assert HP == 2 * x * s.oscillator_level * P


def twist_profile(s, r):
    """The library's rho profile pushed through the twist: r^power R_rho(c r),
    (power, c^2) from ``twist_exponents``."""
    power, c2 = radial.twist_exponents(s)
    return r ** float(power) * radial_rho(s, math.sqrt(c2) * r)


def worst_twist_spread():
    """Largest variance of twist_profile / oscillator_profile over its mean."""
    r = np.linspace(0.2, 5.0, 200)
    worst = 0.0
    for s in states():
        ratio = twist_profile(s, r) / oscillator_profile(s, r)
        worst = max(worst, float(np.var(ratio / np.mean(ratio))))
    return worst


def test_twist_ratio_is_constant():
    # the sampled Kepler profile, twisted, against the oscillator product
    assert worst_twist_spread() < 1e-20


def test_twist_ratio_reads_the_shared_exponents(monkeypatch):
    # negative control: the rho power 2 ell + 3/2 in the exponent table,
    # which also fails both exact twist rows of `verify all`
    original = radial.exponents

    def exponents(s, coordinate):
        power, scale, rate = original(s, coordinate)
        return (power - 1 if coordinate == "rho" else power), scale, rate
    monkeypatch.setattr(radial, "exponents", exponents)
    assert worst_twist_spread() > 1e-3


def test_twist_constant_agrees_between_windows():
    s = RadialState(ModelParams(2, 2), 3, 1)
    r1 = np.linspace(0.2, 1.0, 50)
    r2 = np.linspace(3.0, 5.0, 50)
    c1 = np.mean(twist_profile(s, r1) / oscillator_profile(s, r1))
    c2 = np.mean(twist_profile(s, r2) / oscillator_profile(s, r2))
    assert c1 == pytest.approx(c2, rel=1e-12)


# ---------------------------------------------------------------------------
# orthonormality


def test_gram_matrix_is_identity():
    held = gram_identities(ModelParams(2, 0), 0, k_max=6)
    assert len(held) == 21 and all(held)  # the pairs i <= j
    assert all(type(ok) is bool for ok in held)


@pytest.mark.parametrize("sigma_bar, l", [(1, 0), (2, 2), (0, 1)])
def test_gram_matrix_other_channels(sigma_bar, l):
    held = gram_identities(ModelParams(2, sigma_bar), l, k_max=5)
    assert len(held) == 15 and all(held)


def test_gram_matrix_is_identity_over_the_channels():
    # one k <= 8 Gram per channel holds every smaller one as its leading
    # block
    for n in (2, 3, 4):
        for sigma_bar in range(9):
            p = ModelParams(n, sigma_bar)
            for l in range(11):
                held = gram_identities(p, l, k_max=8)
                assert len(held) == 36 and all(held)


def test_gram_matrix_past_the_double_range():
    # the squared norm at l = 200 is far past 1e308; the entries are ints
    s = RadialState(ModelParams(2, 0), 2, 200)
    assert radial_norm2_t(s) > Fraction(10) ** 308
    assert gram_identities(ModelParams(2, 0), 200, k_max=2) == [True] * 3


def test_orthogonality_validation():
    p = ModelParams(2, 0)
    with pytest.raises(ValueError):
        gram_identities(p, 0, k_max=0)
    with pytest.raises(ValueError):
        gram_identities(p, -1, k_max=2)
    assert len(gram_identities(p, 0, k_max=12)) == 78
