"""Radial wavefunctions, ODE residuals, eigensolver and oscillator twist.

Closed-form bound states are generalized Laguerre profiles.  In the
coordinate t (measure t^{2n} dt) the (k, l) state for parameters
(n, sigma_bar) is

    R(t) = c * t^L * Lag(a, m, 2t/nu) * exp(-t/nu),

with L = l + sigma_bar/2, nu = k + L + n - 1, Laguerre index
a = 2l + sigma_bar + 2n - 1 and degree m = k - 1.  The rho form
(measure rho^{4n-4} d rho) is rho^{5/2} R(rho^2); the harmonic-oscillator
profile in the coordinate r (measure r^{4n-1} dr) is obtained from the
rho form by the twist r -> sqrt(nu/2) r and division by r^{5/2}.

Norms are exact closed forms, and profiles are evaluated in log space,
so a normalized sample is finite wherever its value fits in a double.
Quadrature only cross-checks the norms (``orthogonality_check``).

Residual checks evaluate the radial operators with analytic Laguerre
derivatives; finite differences appear only in the discretized
eigensolver and in the dimension-five operator check on generic test
functions, where no closed form is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .quadrature import composite_gauss_legendre
from .spectral import ModelParams, energy

__all__ = [
    "UnderResolved",
    "RadialState",
    "RadialGrid",
    "laguerre",
    "radial_t",
    "radial_rho",
    "radial_norm2_t",
    "radial_norm2_rho",
    "kepler_residual",
    "eigensolve",
    "default_t_max",
    "oscillator_profile",
    "twist_profile",
    "oscillator_residual",
    "oscillator_eigenvalue",
    "oscillator_eigenvalue_exact",
    "MiczReport",
    "micz_check",
    "orthogonality_check",
]

ArrayLike = Union[float, np.ndarray]


class UnderResolved(ValueError):
    """A numerical route's guard found its grid or domain too small.

    The command line reports it as a failed row (exit 1), not as an
    argument error (exit 2).
    """


@dataclass(frozen=True)
class RadialState:
    """One bound state (k, l) of the model ``params``."""

    params: ModelParams
    k: int
    l: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.l < 0:
            raise ValueError("l must be >= 0")

    @property
    def I(self) -> int:
        return self.k - 1 + self.l

    @property
    def two_ell(self) -> int:
        """Twice the effective angular momentum l + sigma_bar/2."""
        return 2 * self.l + self.params.sigma_bar

    @property
    def ell(self) -> Fraction:
        return Fraction(self.two_ell, 2)

    @property
    def nu(self) -> Fraction:
        """The effective principal number k + ell + n - 1 = I + n + sigma_bar/2."""
        return self.k + self.ell + self.params.n - 1

    @property
    def laguerre_index(self) -> int:
        return self.two_ell + 2 * self.params.n - 1

    @property
    def laguerre_degree(self) -> int:
        return self.k - 1

    @property
    def oscillator_level(self) -> int:
        """The integer 2I + sigma_bar + 2n."""
        return 2 * self.I + self.params.sigma_bar + 2 * self.params.n


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing positive sample points with a measure exponent.

    ``weight_exponent`` records the volume weight of the coordinate the
    points live in: 2n for the t coordinate, 4n-1 for the oscillator
    coordinate r, 4n-4 for rho.
    """

    points: np.ndarray
    weight_exponent: int

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("need a one-dimensional grid with >= 2 points")
        if pts[0] <= 0.0:
            raise ValueError("first grid point must be positive")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")

    @staticmethod
    def uniform(lo: float, hi: float, num: int, weight_exponent: int) -> "RadialGrid":
        return RadialGrid(np.linspace(lo, hi, num), weight_exponent)


def _laguerre(a, m, x):
    """L^a_m(x) by the recurrence in the degree, 0 for m < 0; ``x`` is a
    float array or a Fraction, and the arithmetic follows it."""
    if m < 0:
        return x * 0
    prev = x * 0 + 1
    if m == 0:
        return prev
    cur = 1 + a - x
    for i in range(1, m):
        prev, cur = cur, ((2 * i + 1 + a - x) * cur - (i + a) * prev) / (i + 1)
    return cur


def laguerre(a: float, m: int, x: ArrayLike) -> ArrayLike:
    """Generalized Laguerre polynomial L^a_m(x) by the three-term recurrence.

    The recurrence in the degree is numerically stable for the m and a
    used here.  The derivative is available through the identity
    d/dx L^a_m = -L^{a+1}_{m-1}.
    """
    if m < 0:
        raise ValueError("degree must be >= 0")
    x_arr = np.asarray(x, dtype=float)
    out = _laguerre(a, m, np.atleast_1d(x_arr))
    return float(out[0]) if x_arr.ndim == 0 else out


def _lag_d(a: int, m: int, x: np.ndarray, order: int) -> np.ndarray:
    """order-th derivative of L^a_m at x via the index-raising identity."""
    if m - order < 0:
        return np.zeros_like(x)
    sign = -1.0 if order % 2 else 1.0
    return sign * laguerre(a + order, m - order, x)


def _positive(x: ArrayLike, name: str,
              fun: Callable[[np.ndarray], np.ndarray]) -> ArrayLike:
    """``fun`` at the positive points ``x``; a float for a scalar ``x``."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive")
    out = fun(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# closed-form profiles and norms


def _log(q: Fraction) -> float:
    """log of a positive rational whose float value may overflow."""
    return math.log(q.numerator) - math.log(q.denominator)


def _profile(s: RadialState, x: np.ndarray, rho: bool = False,
             log_norm2: float = 0.0) -> np.ndarray:
    """The t-profile at t = x, or the rho-profile at rho = x, over sqrt(N).

    sign * exp(log-magnitude) with log N = ``log_norm2``: a sample is
    finite whenever its value is, even where a factor alone is not.
    """
    nu = float(s.nu)
    t = x * x if rho else x
    power = s.two_ell + 2.5 if rho else float(s.ell)
    lag = laguerre(s.laguerre_index, s.laguerre_degree, 2.0 * t / nu)
    # log 0 at a Laguerre node, and exp past the double range, are expected
    with np.errstate(divide="ignore", over="ignore"):
        logmag = power * np.log(x) + np.log(np.abs(lag)) - t / nu \
            - 0.5 * log_norm2
        return np.sign(lag) * np.exp(logmag)


def radial_norm2_t(s: RadialState) -> Fraction:
    """Exact squared norm of the bare t-profile in L^2(t^{2n} dt).

    (nu/2)^(a+2) * 2 nu * (a+m)!/m!, from the weighted Laguerre integral
    of x^(a+1) e^{-x} L^a_m(x)^2, which is (a+m)!/m! * (2m+a+1), and
    2m+a+1 = 2 nu.
    """
    nu = s.nu
    a, m = s.laguerre_index, s.laguerre_degree
    return (nu / 2) ** (a + 2) * 2 * nu \
        * Fraction(math.factorial(a + m), math.factorial(m))


def radial_norm2_rho(s: RadialState) -> Fraction:
    """Exact squared norm of the bare rho-profile in L^2(rho^{4n-4} d rho).

    Half the t-norm: with t = rho^2 the measures satisfy
    rho^{4n-4} rho^5 d rho = t^{2n} dt / 2.
    """
    return radial_norm2_t(s) / 2


def radial_t(s: RadialState, t: ArrayLike, normalized: bool = False) -> ArrayLike:
    """The t-coordinate profile; unit norm in L^2(t^{2n} dt) if requested.

    The bare (c = 1) profiles satisfy radial_t(s, rho^2) =
    radial_rho(s, rho) / rho^{5/2} identically; the normalized forms
    differ from that identity by the fixed factor sqrt(2) coming from the
    two volume measures.
    """
    log_norm2 = _log(radial_norm2_t(s)) if normalized else 0.0
    return _positive(t, "t", lambda x: _profile(s, x, log_norm2=log_norm2))


def radial_rho(s: RadialState, rho: ArrayLike, normalized: bool = False) -> ArrayLike:
    """The rho-coordinate profile; unit norm in L^2(rho^{4n-4} d rho) if requested."""
    log_norm2 = _log(radial_norm2_rho(s)) if normalized else 0.0
    return _positive(rho, "rho",
                     lambda x: _profile(s, x, rho=True, log_norm2=log_norm2))


# ---------------------------------------------------------------------------
# residuals with analytic derivatives


def kepler_residual(s: RadialState, grid: RadialGrid) -> float:
    """Max relative residual of the t-coordinate eigenvalue equation.

    Applies -(1/(2 t^{2n})) d/dt t^{2n} d/dt + ell(ell+2n-1)/(2t^2) - 1/t
    to the closed-form state using analytic Laguerre derivatives and
    compares with E = -1/(2 nu^2).
    """
    t = grid.points
    n = s.params.n
    nu = float(s.nu)
    ell = float(s.ell)
    a, m = s.laguerre_index, s.laguerre_degree
    x = 2.0 * t / nu
    P = laguerre(a, m, x)
    P1 = _lag_d(a, m, x, 1)
    P2 = _lag_d(a, m, x, 2)
    E = np.exp(-t / nu)
    tl = np.power(t, ell)
    R = tl * P * E
    Rp = E * (ell * tl / t * P + tl * P1 * (2.0 / nu) - tl * P / nu)
    Rpp = E * (ell * (ell - 1.0) * tl / t ** 2 * P
               + 2.0 * ell * tl / t * P1 * (2.0 / nu)
               - 2.0 * ell * tl / t * P / nu
               + tl * P2 * (4.0 / nu ** 2)
               - tl * P1 * (4.0 / nu ** 2)
               + tl * P / nu ** 2)
    LR = (-0.5 * (Rpp + (2.0 * n / t) * Rp)
          + ell * (ell + 2.0 * n - 1.0) / (2.0 * t ** 2) * R
          - R / t)
    Eval = -0.5 / nu ** 2
    return float(np.max(np.abs(LR - Eval * R)) / np.max(np.abs(R)))


def oscillator_profile(s: RadialState, r: ArrayLike) -> ArrayLike:
    """Oscillator radial profile r^L Lag(a, m, r^2) exp(-r^2/2), L = 2l + sigma_bar."""
    return _positive(r, "r", lambda rr: (
        np.power(rr, s.two_ell)
        * laguerre(s.laguerre_index, s.laguerre_degree, rr * rr)
        * np.exp(-rr * rr / 2.0)))


def twist_profile(s: RadialState, r: ArrayLike) -> ArrayLike:
    """The rho profile pushed through the twist: r^{-5/2} R_rho(sqrt(nu/2) r).

    Proportional to ``oscillator_profile`` with one r-independent constant
    per state.
    """
    scale = math.sqrt(float(s.nu) / 2.0)
    return _positive(r, "r", lambda rr: (
        _profile(s, scale * rr, rho=True) * np.power(rr, -2.5)))


def _oscillator_apply(s: RadialState, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, Hf) for the oscillator hamiltonian on the radial channel of s."""
    n = s.params.n
    L = s.two_ell
    a, m = s.laguerre_index, s.laguerre_degree
    x = r * r
    P = laguerre(a, m, x)
    P1 = _lag_d(a, m, x, 1)
    P2 = _lag_d(a, m, x, 2)
    E = np.exp(-x / 2.0)
    g = P * E
    gp = r * (2.0 * P1 - P) * E
    gpp = E * ((2.0 * P1 - P) + 2.0 * x * (2.0 * P2 - P1) - x * (2.0 * P1 - P))
    rl = np.power(r, L)
    f = rl * g
    fp = L * rl / r * g + rl * gp
    fpp = L * (L - 1.0) * rl / r ** 2 * g + 2.0 * L * rl / r * gp + rl * gpp
    Hf = (-0.5 * (fpp + (4.0 * n - 1.0) / r * fp - L * (L + 4.0 * n - 2.0) / x * f)
          + 0.5 * x * f)
    return f, Hf


def oscillator_residual(s: RadialState, grid: RadialGrid) -> float:
    """Max relative residual of (-Lap/2 + r^2/2) f = (2I + sigma_bar + 2n) f."""
    f, Hf = _oscillator_apply(s, grid.points)
    lam = float(s.oscillator_level)
    return float(np.max(np.abs(Hf - lam * f)) / np.max(np.abs(f)))


def oscillator_eigenvalue(s: RadialState, grid: RadialGrid) -> float:
    """Least-squares readback of the oscillator eigenvalue from the residual."""
    f, Hf = _oscillator_apply(s, grid.points)
    return float(np.dot(Hf, f) / np.dot(f, f))


def oscillator_eigenvalue_exact(s: RadialState,
                                x: Union[int, Fraction] = Fraction(7, 3)) -> Fraction:
    """Rational readback of the oscillator eigenvalue at the point r^2 = x.

    The Gaussian and the power r^L cancel from Hf/f, leaving a ratio of
    rational polynomials in x; the centrifugal singularity cancels
    identically.  Evaluating with exact arithmetic returns 2I + sigma_bar
    + 2n as a Fraction, with no rounding anywhere.  The point must avoid
    the zeros of the Laguerre factor; if it hits one, a nearby rational
    is substituted (a degree-m polynomial has at most m roots).
    """
    a, m = s.laguerre_index, s.laguerre_degree
    x = Fraction(x)
    if x <= 0:
        raise ValueError("x must be positive")
    for shift in range(m + 1):
        xs = x + Fraction(shift, 97)
        P = _laguerre(a, m, xs)
        if P != 0:
            x = xs
            break
    else:
        raise ValueError("could not avoid the Laguerre zeros")
    P1 = -_laguerre(a + 1, m - 1, x)
    P2 = _laguerre(a + 2, m - 2, x)
    L = s.two_ell
    n = s.params.n
    # g = P exp(-x/2) as a function of r with x = r^2:
    #   (g'/g)/r      = (2 P1 - P) / P
    #   g''/g         = ((2P1 - P) + 2x (2P2 - P1) - x (2P1 - P)) / P
    # and the 1/x terms from r^L cancel against the centrifugal potential.
    gp_over_rg = (2 * P1 - P) / P
    gpp_over_g = ((2 * P1 - P) + 2 * x * (2 * P2 - P1) - x * (2 * P1 - P)) / P
    return (-Fraction(1, 2) * ((2 * L + 4 * n - 1) * gp_over_rg + gpp_over_g)
            + x / 2)


# ---------------------------------------------------------------------------
# discretized eigensolver


def default_t_max(p: ModelParams, l: int, count: int) -> float:
    """Domain cutoff for the eigensolver, sized for the slowest bound state.

    The classical turning point of the level with effective number nu sits
    at 2 nu^2; the cutoff adds a decay margin of 10 nu and never shrinks
    below 60.
    """
    nu_top = count + float(Fraction(2 * l + p.sigma_bar, 2)) + p.n - 1
    return max(60.0, 2.0 * nu_top ** 2 + 10.0 * nu_top)


def eigensolve(p: ModelParams, l: int, grid_size: int = 4000,
               t_max: Optional[float] = None, count: int = 3) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the t-coordinate radial equation.

    Parameters
    ----------
    p : ModelParams
        Model parameters (n, sigma_bar).
    l : int
        Angular channel.
    grid_size : int
        Number of uniform subintervals of [0, t_max]; at least 500.
    t_max : float, optional
        Domain cutoff; defaults to :func:`default_t_max`.
    count : int
        Number of eigenvalues, at most 5.

    Notes
    -----
    The substitution u = t^n R turns the t^{2n}-weighted operator into the
    standard Sturm-Liouville form

        -u''/2 + [ (ell(ell+2n-1) + n(n-1)) / (2 t^2) - 1/t ] u = E u,

    which is discretized by second-order central differences on the
    interior nodes of a uniform grid with Dirichlet conditions at both
    ends (the first node is t_max/grid_size).  The resulting matrix is
    symmetric tridiagonal; eigenvalues come from a standard bisection
    solver.  A boundary detector rejects the result if any returned
    eigenvector carries more than 1e-8 of its mass in the outer percent
    of the domain.

    Raises
    ------
    ValueError
        If the grid is too coarse or too many eigenvalues are requested.
    UnderResolved
        If the eigenfunctions touch the boundary (t_max too small).
    """
    if grid_size < 500:
        raise ValueError("grid_size must be >= 500")
    if not 1 <= count <= 5:
        raise ValueError("count must be between 1 and 5")
    if t_max is None:
        t_max = default_t_max(p, l, count)
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    n = p.n
    ell = float(Fraction(2 * l + p.sigma_bar, 2))
    h = t_max / grid_size
    t = h * np.arange(1, grid_size)
    V = (ell * (ell + 2 * n - 1) + n * (n - 1)) / (2.0 * t * t) - 1.0 / t
    diag = 1.0 / h ** 2 + V
    off = np.full(grid_size - 2, -0.5 / h ** 2)
    vals, vecs = eigh_tridiagonal(diag, off, select="i",
                                  select_range=(0, count - 1))
    tail = max(1, grid_size // 100)
    mass = np.sum(vecs ** 2, axis=0)
    tail_mass = np.sum(vecs[-tail:, :] ** 2, axis=0)
    if np.any(tail_mass / mass > 1e-8):
        raise UnderResolved(
            f"t_max={t_max:g} too small: eigenfunction mass at the boundary")
    return vals


# ---------------------------------------------------------------------------
# the dimension-five equivalence


_FD1_WEIGHTS = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
_FD2_WEIGHTS = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_FD_OFFSETS = np.arange(-3, 4)


def _fd(fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
        h: float, order: int) -> np.ndarray:
    w = _FD1_WEIGHTS / h if order == 1 else _FD2_WEIGHTS / (h * h)
    acc = np.zeros_like(x)
    for c, o in zip(w, _FD_OFFSETS):
        acc = acc + c * fun(x + o * h)
    return acc


def _default_micz_tests() -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    return (
        lambda r: np.exp(-r) * r ** 2,
        lambda r: r ** 3 / (1.0 + r * r),
        lambda r: np.sin(r) * np.exp(-0.5 * r),
    )


@dataclass(frozen=True)
class MiczReport:
    sigma_bar: int
    spectrum_exact: bool
    operator_residuals: tuple[float, ...]
    centrifugal_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (self.spectrum_exact
                and all(r < self.tolerance for r in self.operator_residuals)
                and self.centrifugal_deviation < self.tolerance)


def micz_check(sigma_bar: int,
               test_functions: Optional[Sequence[Callable]] = None,
               r_grid: Optional[np.ndarray] = None,
               i_max: int = 20,
               fd_step: float = 0.01,
               tolerance: float = 1e-6) -> MiczReport:
    """Equivalence of the n = 2 model with the dimension-five problem.

    Two independent checks:

    (i) spectrum: for magnetic charge mu = sigma_bar/2 the exact energies
        -(1/2)/(I + 2 + mu)^2 agree with :func:`qkepler.spectral.energy`
        at n = 2, as rationals, for all I <= i_max;

    (ii) operator: for each radial test function Phi(r), the conjugated
        radial hamiltonian evaluated at rho = sqrt(r) through
        g(rho) = rho^{3/2} Phi(rho^2),

            -(g'' + 4 g'/rho) / (8 rho^{7/2})
            + (sigma_bar(sigma_bar+2) + 27/4) Phi(rho^2) / (8 rho^4)
            - Phi(rho^2)/rho^2,

        matches -(Phi'' + 4 Phi'/r)/2 + sigma_bar(sigma_bar+2) Phi/(8 r^2)
        - Phi/r pointwise; derivatives by sixth-order central differences.

    The report also refits the 1/r^2 coefficient of the transformed
    operator, which recovers mu^2 + mu.
    """
    if sigma_bar < 0:
        raise ValueError("sigma_bar must be >= 0")
    p = ModelParams(2, sigma_bar)
    mu = Fraction(sigma_bar, 2)
    spectrum_exact = all(
        energy(p, I) == Fraction(-1, 2) / (I + 2 + mu) ** 2
        for I in range(i_max + 1))

    funcs = tuple(test_functions) if test_functions is not None \
        else _default_micz_tests()
    r = np.linspace(0.5, 10.0, 191) if r_grid is None \
        else np.asarray(r_grid, dtype=float)
    if np.any(r <= 9.0 * fd_step):
        raise ValueError("grid too close to the origin for the stencil")
    rho = np.sqrt(r)
    cc = sigma_bar * (sigma_bar + 2)

    residuals = []
    fits = []
    for phi in funcs:
        g = lambda x: x ** 1.5 * phi(x * x)  # noqa: E731
        gd = _fd(g, rho, fd_step, 1)
        gdd = _fd(g, rho, fd_step, 2)
        F = phi(r)
        lhs = (-(gdd + 4.0 * gd / rho) / (8.0 * rho ** 3.5)
               + (cc + 27.0 / 4.0) / (8.0 * rho ** 4) * F
               - F / rho ** 2)
        pd = _fd(phi, r, fd_step, 1)
        pdd = _fd(phi, r, fd_step, 2)
        rhs = -0.5 * (pdd + 4.0 * pd / r) + cc / 8.0 * F / r ** 2 - F / r
        residuals.append(float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))))
        # strip kinetic and Coulomb parts, then least-squares fit the
        # centrifugal coefficient (pointwise ratios blow up at zeros of phi)
        centrifugal = lhs - (-0.5 * (pdd + 4.0 * pd / r) - F / r)
        coeff = float(np.dot(2.0 * r ** 2 * centrifugal, F) / np.dot(F, F))
        fits.append(abs(coeff - float(mu ** 2 + mu)))
    return MiczReport(sigma_bar=sigma_bar,
                      spectrum_exact=spectrum_exact,
                      operator_residuals=tuple(residuals),
                      centrifugal_deviation=float(max(fits)),
                      tolerance=tolerance)


# ---------------------------------------------------------------------------
# orthonormality


def orthogonality_check(p: ModelParams, l: int, k_max: int = 6,
                        quadrature: int = 48) -> np.ndarray:
    """Gram matrix of the normalized t-profiles for k = 1 .. k_max.

    The cross integrals are quadratures and the normalization is the
    exact closed-form norm, so the diagonal compares the two.  Row i is
    integrated on its own truncated domain, sized for the pair
    (k = i+1, k = k_max), with ``quadrature`` Gauss-Legendre panels of
    order 16.  Distinct rows therefore reach the same off-diagonal entry
    through different quadratures; if the two disagree beyond 1e-10 the
    quadrature is under-resolved and UnderResolved is raised.
    """
    if not 1 <= k_max <= 8:
        raise ValueError("k_max must be between 1 and 8")
    if quadrature < 1:
        raise ValueError("quadrature must be >= 1")
    n = p.n
    states = [RadialState(p, k, l) for k in range(1, k_max + 1)]
    norms = [math.sqrt(radial_norm2_t(s)) for s in states]
    top = states[-1]
    G = np.zeros((k_max, k_max))
    for i, si in enumerate(states):
        # decay rate of the cross integrand is the harmonic mean of the rates
        nu_mix = 2.0 / (1.0 / float(si.nu) + 1.0 / float(top.nu))
        x_max = 2.5 * (si.laguerre_index + si.laguerre_degree
                       + top.laguerre_degree + 1) + 30.0
        t_hi = nu_mix * x_max / 2.0
        for j, sj in enumerate(states):
            val = composite_gauss_legendre(
                lambda t: _profile(si, t) * _profile(sj, t) * t ** (2 * n),
                0.0, t_hi, order=16, panels=quadrature)
            G[i, j] = val / (norms[i] * norms[j])
    asym = float(np.max(np.abs(G - G.T)))
    if asym > 1e-10:
        raise UnderResolved(
            f"Gram asymmetry {asym:.2e} indicates quadrature under-resolution")
    return G
