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

Every profile, twisted or not, reads its exponents as Fractions from
``exponents`` and ``twist_exponents``.  Norms are exact closed forms, and
profiles are evaluated in log space, so a normalized sample is finite
wherever its value fits in a double.  The Gram matrix is a Gauss-Laguerre
sum, exact for these profiles (``orthogonality_check``).

Each radial operator is written once, on the Laguerre polynomial P
alone: the envelope w (t^ell e^{-t/nu} on the Kepler side, r^L e^{-r^2/2}
on the oscillator side) is divided out, H(wP) = w H~P, with analytic
Laguerre derivatives.  The reduced operator reads the state's numbers
as scalars or as column vectors, and its point as a Fraction or a float
array.  The float residuals are batched: ``residuals`` sizes one grid
row per state from the state and evaluates H~ once per Laguerre degree
on the stacked rows of all states of that degree.  It weights H~P - E P
by the envelope over its largest value on each row, formed in log space,
so no power of t or r ever overflows; the exact read-back is H~P/P at a
rational point.  ``kepler_residual`` and ``oscillator_residual`` run the
same kernel on a caller's ``RadialGrid``; only the benchmark calls them.

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
from typing import Callable, NamedTuple, Sequence, Union

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
    "decay_cutoff",
    "residuals",
    "kepler_residual",
    "eigensolve",
    "laguerre_eigenvalues",
    "LAGUERRE_BUDGET",
    "default_t_max",
    "oscillator_profile",
    "twist_profile",
    "oscillator_residual",
    "oscillator_eigenvalue_exact",
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
    :func:`oscillator_residual` read a grid; :func:`residuals` sizes its
    own rows from the states.  Immutable, and equal only to itself.
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
    """L^a_m(x) by the recurrence in the degree, 0 for m < 0; ``x`` is a
    float array, or a Fraction for the exact value."""
    if isinstance(x, Fraction):
        return _laguerre_rational(a, m, x)
    if m < 0:
        return x * 0
    prev = x * 0 + 1
    if m == 0:
        return prev
    cur = 1 + a - x
    for i in range(1, m):
        prev, cur = cur, ((2 * i + 1 + a - x) * cur - (i + a) * prev) / (i + 1)
    return cur


def _laguerre_rational(a: int, m: int, x: Fraction) -> Fraction:
    """L^a_m(p/q) exactly, for an integer index a: the recurrence on the
    integers T_i = i! q^i L^a_i(p/q),

        T_0 = 1,  T_1 = (1+a)q - p,
        T_{i+1} = ((2i+1+a)q - p) T_i - i(i+a) q^2 T_{i-1},

    and one division T_m / (m! q^m) at the end, where Fraction arithmetic
    would reduce by a gcd at every step."""
    if m < 0:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    prev, cur = 0, 1  # T_{-1} and T_0: the step at i = 0 gives T_1
    for i in range(m):
        prev, cur = cur, (((2 * i + 1 + a) * q - p) * cur
                          - i * (i + a) * q * q * prev)
    return Fraction(cur, math.factorial(m) * q ** m)


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
# residuals of the reduced operators


def decay_cutoff(s: RadialState) -> float:
    """x = 2t/nu = r^2 = 2.5 (a + 2m + 1) + 30, past the turning point
    x = 2 (a + 2m + 1) of the state on both sides; the residual grids end
    there."""
    return 2.5 * (s.laguerre_index + 2 * s.laguerre_degree + 1) + 30.0


def _kepler_reduced(t, n, ell, nu, a, m: int):
    """(P, H~P) with P = L^a_m(2t/nu) and H(wP) = w H~P, w = t^ell e^{-t/nu}.

    H = -(1/(2 t^{2n})) d/dt t^{2n} d/dt + ell(ell+2n-1)/(2t^2) - 1/t.  With
    g = w'/w, (wP)'/w = P' + gP and (wP)''/w = P'' + 2gP' + (g^2 + g')P.
    Every term is kept, the cancelling centrifugal 1/t^2 terms included.
    n, ell, nu and the Laguerre index a are numbers, or column vectors with
    one row per row of ``t``; the degree m is one int.  The arithmetic
    follows the inputs: Fractions at a rational t give H~P exactly.
    """
    x = 2 * t / nu
    P = _laguerre(a, m, x)
    P1 = -2 / nu * _laguerre(a + 1, m - 1, x)
    P2 = 4 / nu ** 2 * _laguerre(a + 2, m - 2, x)
    g = ell / t - 1 / nu
    D1 = P1 + g * P
    D2 = P2 + 2 * g * P1 + (g * g - ell / t ** 2) * P
    HP = (-(D2 + 2 * n / t * D1) / 2
          + ell * (ell + 2 * n - 1) / (2 * t ** 2) * P - P / t)
    return P, HP


def _oscillator_reduced(x, n, L, a, m: int):
    """(P, H~P) with P = L^a_m(x) and H(wP) = w H~P, w = x^{L/2} e^{-x/2}.

    In x = r^2, H = -Lap/2 + r^2/2 on the channel L = 2 ell is -2x d^2/dx^2
    - 4n d/dx + L(L+4n-2)/(2x) + x/2; g is as in :func:`_kepler_reduced`,
    and so is the reading of the inputs.  Every term is kept, the
    cancelling centrifugal 1/x terms included.
    """
    P = _laguerre(a, m, x)
    P1 = -_laguerre(a + 1, m - 1, x)
    P2 = _laguerre(a + 2, m - 2, x)
    g = (L - x) / (2 * x)
    D1 = P1 + g * P
    D2 = P2 + 2 * g * P1 + (g * g - L / (2 * x * x)) * P
    HP = (-2 * x * D2 - 4 * n * D1
          + L * (L + 4 * n - 2) / (2 * x) * P + x * P / 2)
    return P, HP


def _column(states: Sequence[RadialState],
            value: Callable[[RadialState], object]) -> ArrayLike:
    """float(value(s)) of each state as a column vector, or as one float
    when the states agree on it: a number broadcasts the same way, at the
    cost of no array operation."""
    values = [float(value(s)) for s in states]
    if values.count(values[0]) == len(values):
        return values[0]
    return np.array(values)[:, None]


def _kepler_terms(states: Sequence[RadialState], t: np.ndarray, m: int):
    """(P, H~P, log w, E, |E|) of the Kepler states of degree m at their
    rows of t, E = -1/(2 nu^2) from :func:`energy`."""
    ell, nu = _column(states, lambda s: s.ell), _column(states, lambda s: s.nu)
    E = _column(states, lambda s: energy(s.params, s.I))
    P, HP = _kepler_reduced(t, _column(states, lambda s: s.params.n), ell, nu,
                            _column(states, lambda s: s.laguerre_index), m)
    return P, HP, ell * np.log(t) - t / nu, E, abs(E)


def _oscillator_terms(states: Sequence[RadialState], r: np.ndarray, m: int):
    """(P, H~P, log w, lambda, 1) of the oscillator states of degree m at
    their rows of r, lambda = 2I + sigma_bar + 2n."""
    L = _column(states, lambda s: s.two_ell)
    n = _column(states, lambda s: s.params.n)
    P, HP = _oscillator_reduced(r * r, n, L,
                                _column(states, lambda s: s.laguerre_index), m)
    return (P, HP, L * np.log(r) - r * r / 2.0,
            _column(states, lambda s: s.oscillator_level), 1.0)


_TERMS = {"kepler": _kepler_terms, "oscillator": _oscillator_terms}


def _residuals(operator: str, states: Sequence[RadialState],
               points: np.ndarray) -> np.ndarray:
    """The residual of each state on its row of ``points``, shape (S, P).

    The states are grouped by Laguerre degree m, the one number the
    recurrence loops over, and each degree is one evaluation of the
    reduced operator on its stacked rows, with the other numbers of the
    states as column vectors, or as one number where the states agree.
    Each point goes through the same operations whatever the batch, so a
    residual does not depend on the states beside it.  f = wP and Hf =
    wH~P carry the envelope w over its largest value on the row: no power
    of t or r is ever taken.
    """
    rows_of: dict[int, list[int]] = {}
    for i, s in enumerate(states):
        rows_of.setdefault(s.laguerre_degree, []).append(i)
    out = np.empty(len(states))
    for m, rows in rows_of.items():
        P, HP, log_w, lam, scale = _TERMS[operator](
            [states[i] for i in rows], points[rows], m)
        w = np.exp(log_w - np.max(log_w, axis=1, keepdims=True))
        f, Hf = w * P, w * HP
        out[rows] = (np.max(np.abs(Hf - lam * f), axis=1, keepdims=True)
                     / np.max(np.abs(f), axis=1, keepdims=True) / scale)[:, 0]
    return out


def residuals(operator: str, states: Sequence[RadialState]
              ) -> tuple[np.ndarray, np.ndarray]:
    """(residual, row end) of each state, for the operator "kepler"
    (:func:`kepler_residual`) or "oscillator" (:func:`oscillator_residual`)
    on a grid row sized from the state, ending at :func:`decay_cutoff`.

    Kepler: 400 points of t from nu/40 to nu * cutoff / 2.  At x = 2t/nu
    = 0.05 the cancelling centrifugal and Coulomb terms are within a
    fixed multiple of |E|, the scale of the residual, whatever the state.
    Oscillator: 300 points of r from 0.1 to sqrt(cutoff).
    """
    if operator not in _TERMS:
        raise ValueError(f"unknown operator {operator!r}")
    cut = np.array([decay_cutoff(s) for s in states])
    if operator == "kepler":
        nu = np.array([float(s.nu) for s in states])
        points = np.linspace(nu / 40.0, nu * cut / 2.0, 400, axis=-1)
    else:
        points = np.linspace(np.full(len(states), 0.1), np.sqrt(cut), 300,
                             axis=-1)
    return _residuals(operator, states, points), points[:, -1]


def kepler_residual(s: RadialState, grid: RadialGrid) -> float:
    """Max residual of H f = E f over |E| max|f|, E = -1/(2 nu^2), on
    ``grid``: scale-free, where over max|f| alone the bound would loosen
    as 1/nu^2."""
    return float(_residuals("kepler", [s], grid.points[None])[0])


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


def oscillator_residual(s: RadialState, grid: RadialGrid) -> float:
    """Max relative residual of (-Lap/2 + r^2/2) f = (2I + sigma_bar + 2n) f
    on ``grid``."""
    return float(_residuals("oscillator", [s], grid.points[None])[0])


def oscillator_eigenvalue_exact(s: RadialState) -> Fraction:
    """Rational read-back H~P/P of the oscillator eigenvalue at r^2 = 7/3.

    The envelope cancels from Hf/f, so exact arithmetic returns 2I +
    sigma_bar + 2n as a Fraction.  P(7/3) is never 0: m! L^a_m has integer
    coefficients and leading coefficient (-1)^m, so every rational root of
    P is an integer.
    """
    P, HP = _oscillator_reduced(Fraction(7, 3), s.params.n, s.two_ell,
                                s.laguerre_index, s.laguerre_degree)
    return HP / P


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
