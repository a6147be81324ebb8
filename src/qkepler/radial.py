"""Radial wavefunctions, radial equations, eigensolvers and oscillator twist.

Closed-form bound states are generalized Laguerre profiles.  In the
coordinate t (measure t^{2n} dt) the (k, l) state for parameters
(n, sigma_bar) is

    R(t) = c * t^L * Lag(a, m, 2t/nu) * exp(-t/nu),

with L = l + sigma_bar/2, nu = k + L + n - 1, Laguerre index
a = 2l + sigma_bar + 2n - 1 and degree m = k - 1.  The rho form
(measure rho^{4n-4} d rho) is rho^{5/2} R(rho^2); the harmonic-oscillator
profile in the coordinate r (measure r^{4n-1} dr) is obtained from the
rho form by the twist r -> sqrt(nu/2) r and division by r^{5/2}.

Every profile, twisted or not, reads its exponents as Fractions from
``exponents`` and ``twist_exponents``.  Norms are exact closed forms, and
profiles are evaluated in log space, so a normalized sample is finite
wherever its value fits in a double.  The Gram matrix is a Gauss-Laguerre
sum, exact for these profiles (``orthogonality_check``).

Each radial operator is written once, on the Laguerre polynomial P
alone: the envelope w (t^ell e^{-t/nu} on the Kepler side, r^L e^{-r^2/2}
on the oscillator side) is divided out, H(wP) = w H~P, with analytic
Laguerre derivatives, and the result is multiplied through until no
division is left.  That form is a polynomial of degree at most m + 2 in
t (or x = r^2), so ``kepler_ode`` and ``oscillator_ode`` check the
equations exactly on ints at m + 3 points, the energy or level read
from the library.  ``kepler_residual`` and ``oscillator_residual`` run
the same lines on a caller's ``RadialGrid`` of floats and divide at the
end; only the benchmark calls them.

``laguerre_eigenvalues`` computes the levels of one channel by a
Laguerre-Galerkin route in numpy alone with a two-size error estimate;
``qkepler eigensolve`` and the acceptance gate both use it.
``eigensolve``, a finite-difference route and the only code here that
imports scipy, is kept only for the benchmark's ``radial`` workload.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Union

import numpy as np

from .spectral import ModelParams, energy

__all__ = [
    "UnderResolved",
    "RadialState",
    "RadialGrid",
    "exponents",
    "twist_exponents",
    "laguerre",
    "radial_t",
    "radial_rho",
    "radial_norm2_t",
    "radial_norm2_rho",
    "kepler_ode",
    "oscillator_ode",
    "kepler_residual",
    "eigensolve",
    "laguerre_eigenvalues",
    "LAGUERRE_BUDGET",
    "default_t_max",
    "oscillator_profile",
    "twist_profile",
    "oscillator_residual",
    "orthogonality_check",
    "GRAM_BUDGET",
]

ArrayLike = Union[float, np.ndarray]


class UnderResolved(ValueError):
    """A numerical route's guard found its grid or domain too small.

    The command line reports it as a failed row (exit 1), not as an
    argument error (exit 2).
    """


class _RadialState(NamedTuple):
    params: ModelParams
    k: int
    l: int


class RadialState(_RadialState):
    """One bound state (k, l) of the model ``params``.

    No ``__slots__``: the instance dict holds the cached ``ell`` and
    ``nu``, which the residual and profile code read thousands of times.
    """

    def __new__(cls, params: ModelParams, k: int, l: int) -> RadialState:
        if k < 1:
            raise ValueError("k must be >= 1")
        if l < 0:
            raise ValueError("l must be >= 0")
        return super().__new__(cls, params, k, l)

    @property
    def I(self) -> int:
        return self.k - 1 + self.l

    @property
    def two_ell(self) -> int:
        """Twice the effective angular momentum l + sigma_bar/2."""
        return 2 * self.l + self.params.sigma_bar

    @cached_property
    def ell(self) -> Fraction:
        return Fraction(self.two_ell, 2)

    @cached_property
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


class RadialGrid:
    """Strictly increasing positive finite sample points, shape (P,), with
    a measure exponent.

    ``weight_exponent`` records the volume weight of the coordinate the
    points live in: 2n for the t coordinate, 4n-1 for the oscillator
    coordinate r, 4n-4 for rho.  Only :func:`kepler_residual` and
    :func:`oscillator_residual` read a grid.  Immutable, and equal only to
    itself.
    """

    __slots__ = ("points", "weight_exponent")

    def __init__(self, points: np.ndarray, weight_exponent: int):
        pts = np.asarray(points, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weight_exponent", weight_exponent)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("need a 1-D grid of >= 2 points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if pts[0] <= 0.0:
            raise ValueError("first grid point must be positive")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @staticmethod
    def uniform(lo: float, hi: float, num: int,
                weight_exponent: int) -> "RadialGrid":
        """``num`` uniform points from lo to hi."""
        return RadialGrid(np.linspace(lo, hi, num), weight_exponent)


def _laguerre(a, m, x):
    """L^a_m(x) at the float array x by the recurrence in the degree, 0 for
    m < 0."""
    if m < 0:
        return x * 0
    prev, cur = x * 0, x * 0 + 1  # L_{-1} and L_0: the step at i = 0 gives L_1
    for i in range(m):
        prev, cur = cur, ((2 * i + 1 + a - x) * cur - (i + a) * prev) / (i + 1)
    return cur


def _laguerre_int(a: int, m: int, p: int, q: int) -> int:
    """m! q^m L^a_m(p/q) for ints a, p, q, 0 for m < 0: the recurrence on
    the integers T_i = i! q^i L^a_i(p/q),

        T_0 = 1,  T_1 = (1+a)q - p,
        T_{i+1} = ((2i+1+a)q - p) T_i - i(i+a) q^2 T_{i-1}.
    """
    if m < 0:
        return 0
    prev, cur = 0, 1  # T_{-1} and T_0: the step at i = 0 gives T_1
    for i in range(m):
        prev, cur = cur, (((2 * i + 1 + a) * q - p) * cur
                          - i * (i + a) * q * q * prev)
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


def _sampled(x: ArrayLike, name: str, fun: Callable[
        [np.ndarray], tuple[np.ndarray, np.ndarray]]) -> ArrayLike:
    """sign * exp(log-magnitude), ``fun``'s pair, at the positive points
    ``x``; a float for a scalar ``x``.  A sample is finite whenever its
    value is, even where a factor alone is not."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive")
    sign, logmag = fun(np.atleast_1d(arr))
    with np.errstate(over="ignore"):  # past the double range
        out = sign * np.exp(logmag)
    return float(out[0]) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# closed-form profiles and norms


def _log(q: Fraction) -> float:
    """log of a positive rational whose float value may overflow."""
    return math.log(q.numerator) - math.log(q.denominator)


def exponents(s: RadialState, coordinate: str) -> tuple[Fraction, ...]:
    """(power, scale, rate) of the bare profile x^power L^a_m(scale u)
    e^{-rate u}, u = t in "t" and u = x^2 in "rho" and "oscillator"."""
    if coordinate == "oscillator":
        return Fraction(s.two_ell), Fraction(1), Fraction(1, 2)
    # the rho form is rho^{5/2} R(rho^2)
    power = s.ell if coordinate == "t" else 2 * s.ell + Fraction(5, 2)
    return power, 2 / s.nu, 1 / s.nu


def twist_exponents(s: RadialState) -> tuple[Fraction, Fraction]:
    """(power, c^2) of the twist r^power R_rho(c r): (-5/2, nu/2)."""
    return Fraction(-5, 2), s.nu / 2


def _profile(s: RadialState, x: np.ndarray, coordinate: str,
             log_factor: ArrayLike = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log-magnitude) of the profile of ``s`` in ``coordinate`` at
    the positive points x, times exp(``log_factor``): -log(N)/2 normalizes
    it, and the twist's power of r is a log factor too."""
    power, scale, rate = exponents(s, coordinate)
    u = x if coordinate == "t" else x * x
    # 1/scale, 1/rate are nu/2, nu, 1 or 2, exact: each product rounds once
    lag = laguerre(s.laguerre_index, s.laguerre_degree, u / float(1 / scale))
    with np.errstate(divide="ignore"):  # log 0 at a Laguerre node
        logmag = float(power) * np.log(x) + np.log(np.abs(lag)) \
            - u / float(1 / rate) + log_factor
    return np.sign(lag), logmag


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
    log_factor = -0.5 * _log(radial_norm2_t(s)) if normalized else 0.0
    return _sampled(t, "t", lambda x: _profile(s, x, "t", log_factor))


def radial_rho(s: RadialState, rho: ArrayLike, normalized: bool = False) -> ArrayLike:
    """The rho-coordinate profile; unit norm in L^2(rho^{4n-4} d rho) if requested."""
    log_factor = -0.5 * _log(radial_norm2_rho(s)) if normalized else 0.0
    return _sampled(rho, "rho", lambda x: _profile(s, x, "rho", log_factor))


# ---------------------------------------------------------------------------
# the radial equations: exact identities and float residuals


def _jet(a: int, m: int, u, k: int, q):
    """(P, P', P'') of P(u) = L^a_m(k u / q), by d/dx L^a_m = -L^{a+1}_{m-1}:
    the values at a float array u, and at an int u the values times
    m! q^m, ints from :func:`_laguerre_int`."""
    if isinstance(u, int):
        p = k * u
        return (_laguerre_int(a, m, p, q),
                -m * k * _laguerre_int(a + 1, m - 1, p, q),
                m * (m - 1) * k * k * _laguerre_int(a + 2, m - 2, p, q))
    x, c = k * u / q, k / q
    return (_laguerre(a, m, x), -c * _laguerre(a + 1, m - 1, x),
            c * c * _laguerre(a + 2, m - 2, x))


def _kepler_reduced(t, n: int, two_ell: int, m: int):
    """(P, 2D^2 H~P) on the channel (n, 2 ell, m): P = L^a_m(4t/V), V =
    2 nu = 2 ell + 2m + 2n, a = 2 ell + 2n - 1, D = 2tV, H(wP) = w H~P, w =
    t^ell e^{-t/nu}.

    H = -(1/(2 t^{2n})) d/dt t^{2n} d/dt + ell(ell+2n-1)/(2t^2) - 1/t.  With
    g = w'/w = G/D, G = 2 ell V - 4t, (wP)'/w = P' + gP and (wP)''/w = P''
    + 2gP' + (g^2 + g')P, g' = -ell/t^2.  Times 2D^2 no division is left:
    a polynomial in t of degree at most m + 2, every term kept, the
    cancelling centrifugal ones included.  Ints at an int t (P times
    m! V^m, see :func:`_jet`), floats at a float array.
    """
    V, a = two_ell + 2 * (m + n), two_ell + 2 * n - 1
    P, P1, P2 = _jet(a, m, t, 4, V)
    D, G = 2 * t * V, two_ell * V - 4 * t
    DD1 = D * P1 + G * P
    DDD2 = D * D * P2 + 2 * G * D * P1 + (G * G - 2 * two_ell * V * V) * P
    return P, (-DDD2 - 4 * n * V * DD1
               + two_ell * (two_ell + 4 * n - 2) * V * V * P
               - 8 * t * V * V * P)


def _oscillator_reduced(x, n: int, L: int, m: int):
    """(P, 2x H~P) on the channel (n, L = 2 ell, m): P = L^a_m(x), and
    H(wP) = w H~P, w = x^{L/2} e^{-x/2}.

    In x = r^2, H = -Lap/2 + r^2/2 is -2x d^2/dx^2 - 4n d/dx +
    L(L+4n-2)/(2x) + x/2.  Here D = 2x and G = L - x, so g = G/D, g' =
    -L/(2x^2), and the rest reads as in :func:`_kepler_reduced`: a
    polynomial in x of degree at most m + 2, ints at an int x.
    """
    P, P1, P2 = _jet(L + 2 * n - 1, m, x, 1, 1)
    D, G = 2 * x, L - x
    DD1 = D * P1 + G * P
    DDD2 = D * D * P2 + 2 * G * D * P1 + (G * G - 2 * L) * P
    return P, (-DDD2 - 4 * n * DD1 + L * (L + 4 * n - 2) * P + x * x * P)


def kepler_ode(n: int, two_ell: int, m: int, E: Fraction) -> tuple[int, int]:
    """(points where it holds, points) of H~P = E P on the channel, at t =
    1 .. m + 3: 2D^2 (H~P - E P) has degree at most m + 2 in t, so it
    vanishes identically if it vanishes there.  With 8V^2 E = num/den it
    reads den 2D^2 H~P = num t^2 P at t, in ints."""
    V = two_ell + 2 * (m + n)
    num, den = (E * (8 * V * V)).as_integer_ratio()
    held = 0
    for t in range(1, m + 4):
        P, HP = _kepler_reduced(t, n, two_ell, m)
        held += den * HP == num * t * t * P
    return held, m + 3


def oscillator_ode(n: int, L: int, m: int, lam: int) -> tuple[int, int]:
    """(points where it holds, points) of H~P = lam P on the channel at
    x = r^2 = 1 .. m + 3, in ints, as in :func:`kepler_ode`."""
    held = 0
    for x in range(1, m + 4):
        P, HP = _oscillator_reduced(x, n, L, m)
        held += HP == 2 * x * lam * P
    return held, m + 3


def _residual(P, HP, lam, log_w, scale: float) -> float:
    """max |w (H~P - lam P)| / (scale max |w P|), the envelope w over its
    largest value on the grid, formed in log space."""
    w = np.exp(log_w - np.max(log_w))
    return float(np.max(np.abs(w * (HP - lam * P)))
                 / np.max(np.abs(w * P)) / scale)


def kepler_residual(s: RadialState, grid: RadialGrid) -> float:
    """Max residual of H f = E f over |E| max|f|, E = -1/(2 nu^2), on
    ``grid``: scale-free, where over max|f| alone the bound would loosen
    as 1/nu^2."""
    t, nu = grid.points, float(s.nu)
    P, HP = _kepler_reduced(t, s.params.n, s.two_ell, s.laguerre_degree)
    E, D = float(energy(s.params, s.I)), 4 * nu * t  # D = 2tV
    return _residual(P, HP / (2 * D * D), E,
                     float(s.ell) * np.log(t) - t / nu, abs(E))


def oscillator_residual(s: RadialState, grid: RadialGrid) -> float:
    """Max relative residual of (-Lap/2 + r^2/2) f = (2I + sigma_bar + 2n) f
    on ``grid``."""
    r = grid.points
    x = r * r
    P, HP = _oscillator_reduced(x, s.params.n, s.two_ell, s.laguerre_degree)
    return _residual(P, HP / (2 * x), s.oscillator_level,
                     s.two_ell * np.log(r) - x / 2, 1.0)


def oscillator_profile(s: RadialState, r: ArrayLike) -> ArrayLike:
    """Oscillator radial profile r^L Lag(a, m, r^2) exp(-r^2/2), L = 2l + sigma_bar,
    in log space like the others."""
    return _sampled(r, "r", lambda rr: _profile(s, rr, "oscillator"))


def twist_profile(s: RadialState, r: ArrayLike) -> ArrayLike:
    """The rho profile pushed through the twist: r^{-5/2} R_rho(c r), c^2 = nu/2.

    Proportional to ``oscillator_profile`` with one r-independent constant
    per state; ``checks.twist`` composes the exponents exactly.
    """
    power, c2 = twist_exponents(s)
    c, power = math.sqrt(c2), float(power)
    return _sampled(r, "r", lambda rr: (
        _profile(s, c * rr, "rho", power * np.log(rr))))


# ---------------------------------------------------------------------------
# finite-difference eigensolver


def default_t_max(p: ModelParams, l: int, count: int) -> float:
    """Domain cutoff for the eigensolver, sized for the slowest bound state.

    The classical turning point of the level with effective number nu sits
    at 2 nu^2; the cutoff adds a decay margin of 10 nu and never shrinks
    below 60.
    """
    nu_top = count + float(Fraction(2 * l + p.sigma_bar, 2)) + p.n - 1
    return max(60.0, 2.0 * nu_top ** 2 + 10.0 * nu_top)


def eigensolve(p: ModelParams, l: int, grid_size: int = 4000,
               count: int = 3) -> np.ndarray:
    """Lowest ``count`` eigenvalues of the t-coordinate radial equation, by
    finite differences on [0, :func:`default_t_max`].

    Kept only for the benchmark's ``radial`` workload, which times it;
    the command line and the gate use :func:`laguerre_eigenvalues`.

    Parameters
    ----------
    p : ModelParams
        Model parameters (n, sigma_bar).
    l : int
        Angular channel.
    grid_size : int
        Number of uniform subintervals of [0, t_max]; at least 500.
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
        If the eigenfunctions touch the boundary (the domain is too small).
    """
    if grid_size < 500:
        raise ValueError("grid_size must be >= 500")
    if not 1 <= count <= 5:
        raise ValueError("count must be between 1 and 5")
    t_max = default_t_max(p, l, count)
    from scipy.linalg import eigh_tridiagonal
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
# Laguerre-Galerkin eigensolver

LAGUERRE_BUDGET = 1e-11  # largest two-size estimate the route accepts
LAGUERRE_STEP = 16  # the estimate compares bases of N and N + 16 functions


def _orthonormal_laguerre(a: float, size: int, x: np.ndarray) -> np.ndarray:
    """Rows j < ``size``: sqrt(Gamma(a+1)) p_j(x), with p_j orthonormal for
    x^a e^{-x} and positive leading coefficient.

    The three-term recurrence of the Jacobi matrix (diagonal 2k + a + 1,
    off-diagonal sqrt(k(k+a))), started from 1 instead of
    1/sqrt(Gamma(a+1)), so no Gamma function is ever formed.
    """
    k = np.arange(size)
    b = np.sqrt(k * (k + a))
    out = np.empty((size, x.size))
    out[0] = 1.0
    prev = np.zeros_like(x)
    for j in range(size - 1):
        out[j + 1] = ((x - (2 * j + a + 1)) * out[j] - b[j] * prev) / b[j + 1]
        prev = out[j]
    return out


def _laguerre_rule(a: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_k of the ``size``-point Gauss rule for x^a e^{-x}, the
    eigenvalues of its Jacobi matrix, and Σ_j q_j(x_k)^2 = Gamma(a+1)/w_k,
    q_j from :func:`_orthonormal_laguerre`: Christoffel weights w_k keep
    their relative accuracy at the large nodes where the Golub-Welsch
    form Gamma(a+1) Q_0k^2 loses it."""
    k = np.arange(1, size)
    off = np.sqrt(k * (k + a))
    x = np.linalg.eigvalsh(np.diag(2.0 * np.arange(size) + a + 1)
                           + np.diag(off, 1) + np.diag(off, -1))
    q = _orthonormal_laguerre(a, size, x)
    return x, np.sum(q * q, axis=0)


def _laguerre_size(two_lam: int, count: int) -> int:
    """The smaller basis size N for the lowest ``count`` levels of channel 2λ.

    Level k has u ~ t^{λ+1} e^{-t/(λ+k)} times a polynomial, so its
    coefficients on the basis of :func:`_galerkin` fall like
    τ^j sqrt(C(j+a, j)), with τ = (k-1)/(2λ+k+1) and a = 2λ+2.  N is the
    least size where that coefficient of the top level is below 1e-14.
    Over 2λ <= 106 and count <= 5 both bases then sit at the rounding
    floor: every eigenvalue within 4e-13 of the exact one, and the
    two-size estimate under 4e-13, which guards the sizes beyond.
    """
    tau = (count - 1) / (two_lam + count + 1)
    if tau == 0.0:  # the ground state is the first basis function
        return count
    a = two_lam + 2

    def log_coefficient(j: int) -> float:
        return j * math.log(tau) + 0.5 * (math.lgamma(j + a + 1)
                                          - math.lgamma(j + 1)
                                          - math.lgamma(a + 1))
    size = count
    while log_coefficient(size) > -14 * math.log(10):
        size += 1
    return size


def _galerkin(two_lam: int, size: int,
              count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``count`` eigenvalues of -u''/2 + [λ(λ+1)/(2t^2) - 1/t] u on
    the bases of ``size`` and ``size`` + LAGUERRE_STEP functions.

    The basis is x^{λ+1} e^{-x/2} P_j(x), t = h x with h = (λ+1)/2, which
    holds the ground state exactly; the P_j are orthonormal for
    x^{2λ+2} e^{-x}, so the overlap is h·I.  With Q_j = (λ+1-x/2) P_j +
    x P_j' = (λ+1+j-x/2) P_j + sqrt(j(j+2λ+2)) P_{j-1}, the matrix is

        H_ij = ∫ x^{2λ} e^{-x} [Q_i Q_j / (2h) + (λ(λ+1)/(2h) - x) P_i P_j] dx,

    a polynomial of degree <= 2(N-1) + 2 against x^{2λ} e^{-x}: Gauss
    quadrature on N + 1 nodes (:func:`_laguerre_rule`) is exact.  The
    smaller basis is the leading block of the larger one, so one
    quadrature serves both.  The Gamma factors of the two unnormalized
    families leave the constant (2λ+1)(2λ+2) on H, divided out below.
    """
    lam = two_lam / 2
    h = (lam + 1) / 2
    big = size + LAGUERRE_STEP
    x, christoffel = _laguerre_rule(two_lam, big + 1)
    root_w = 1.0 / np.sqrt(christoffel)
    P = _orthonormal_laguerre(two_lam + 2, big, x) * root_w
    j = np.arange(big)[:, None]
    Q = (lam + 1 + j - x / 2) * P
    Q[1:] += np.sqrt(j[1:] * (j[1:] + two_lam + 2)) * P[:-1]
    H = (Q @ Q.T / (2 * h) + (P * (lam * (lam + 1) / (2 * h) - x)) @ P.T) \
        / ((two_lam + 1) * (two_lam + 2) * h)
    return (np.linalg.eigvalsh(H[:size, :size])[:count],
            np.linalg.eigvalsh(H)[:count])


def laguerre_eigenvalues(p: ModelParams, l: int,
                         count: int = 3) -> tuple[np.ndarray, float]:
    """Lowest ``count`` eigenvalues of the t-coordinate radial equation and
    their two-size error estimate, by a Laguerre-Galerkin method.

    With u = t^n R the equation is -u''/2 + [λ(λ+1)/(2t^2) - 1/t] u = E u,
    λ = ell + n - 1, so the levels depend on (p, l) only through 2λ = a - 1,
    a the Laguerre index of the closed-form states.  The bases are nested
    polynomial spaces, so each eigenvalue falls monotonically toward the
    exact one as the basis grows (Rayleigh-Ritz).  The values returned are
    those of the larger basis; the estimate is the largest relative
    difference from the smaller one, which bounds their truncation error
    once the convergence is geometric.  See :func:`_galerkin` for the basis and
    :func:`_laguerre_size` for its size.  numpy only.

    Raises
    ------
    ValueError
        If l is negative or count is outside 1..5.
    UnderResolved
        If the estimate exceeds LAGUERRE_BUDGET.
    """
    if l < 0:
        raise ValueError("l must be >= 0")
    if not 1 <= count <= 5:
        raise ValueError("count must be between 1 and 5")
    two_lam = RadialState(p, 1, l).laguerre_index - 1
    small, vals = _galerkin(two_lam, _laguerre_size(two_lam, count), count)
    estimate = float(np.max(np.abs(small - vals) / np.abs(vals)))
    if not estimate <= LAGUERRE_BUDGET:
        raise UnderResolved(f"two-size estimate {estimate:.1e} exceeds "
                            f"the budget {LAGUERRE_BUDGET:.0e}")
    return vals, estimate


# ---------------------------------------------------------------------------
# orthonormality

GRAM_BUDGET = 1e-12  # largest two-rule difference the Gram route accepts


def orthogonality_check(p: ModelParams, l: int, k_max: int = 6) -> np.ndarray:
    """Gram matrix of the normalized t-profiles for k = 1 .. k_max.

    In L^2(t^{2n} dt) the (i, j) integrand is t^α e^{-c t}, α = a + 1 and
    c = 1/nu_i + 1/nu_j, times a polynomial of degree <= 2(k_max - 1).
    With t = y/c the Gauss rule for y^α e^{-y} on k_max nodes is exact,
    so only rounding separates the closed-form norms from the sampled
    profiles, taken in log space with the weight divided out before any
    exp.  The rule on k_max + 2 nodes, whose matrix is returned, agrees
    to rounding on a polynomial times the weight and on nothing else: a
    difference over GRAM_BUDGET raises UnderResolved.
    """
    if not 1 <= k_max <= 8:
        raise ValueError("k_max must be between 1 and 8")
    states = [RadialState(p, k, l) for k in range(1, k_max + 1)]
    alpha = states[0].laguerre_index + 1
    y, christoffel = (np.concatenate(v) for v in zip(
        *(_laguerre_rule(alpha, size) for size in (k_max, k_max + 2))))
    inv_nu = np.array([1.0 / float(s.nu) for s in states])
    c = (inv_nu[:, None] + inv_nu)[:, :, None]
    t = y / c
    # log of the weight w_k / (c y^α e^{-y}) of t^{2n} R_i R_j at t[i, j]
    log_w = math.lgamma(alpha + 1) - np.log(christoffel) - alpha * np.log(y) \
        + y - np.log(c) + 2 * p.n * np.log(t)
    # row i holds R_i at the nodes of every pair (i, j); t is symmetric
    sign, log_r = (np.array(v) for v in zip(*(
        _profile(s, t[i], "t", -0.5 * _log(radial_norm2_t(s)))
        for i, s in enumerate(states))))
    terms = sign * sign.transpose(1, 0, 2) \
        * np.exp(log_r + log_r.transpose(1, 0, 2) + log_w)
    G = terms[:, :, k_max:].sum(axis=2)
    estimate = float(np.max(np.abs(terms[:, :, :k_max].sum(axis=2) - G)))
    if not estimate <= GRAM_BUDGET:
        raise UnderResolved(f"two-rule estimate {estimate:.1e} exceeds "
                            f"the budget {GRAM_BUDGET:.0e}")
    return G
