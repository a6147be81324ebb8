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

Every profile reads its exponents as Fractions from ``exponents``, and
``twist_exponents`` holds the twist.  Norms are exact closed forms, and
profiles are evaluated in log space, so a normalized sample is finite
wherever its value fits in a double.  A profile is sampled one Python
float at a time with ``math``, whatever holds the points, so ``qkepler
wavefunction`` (a list) and ``radial_t`` on an ndarray give the same
floats.  Orthonormality is exact: ``gram_identities`` integrates each
pair of states of a channel term by term, in ints.

Importing this module loads no numpy.  The array routes (``RadialGrid``,
the float residuals and the finite-difference ``eigensolve``) import it
when they run.

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

``laguerre_certified`` certifies the exact levels of one channel: exact
Sturm counts in ints on a closed-form Galerkin pencil, grown a row at a
time, bound each true level from both sides.  ``qkepler eigensolve`` and
the gate use it.  The finite-difference ``eigensolve`` (scipy: coarse
levels and eigenvectors interpolated onto the full grid, Rayleigh-quotient
refinement stopped at the Kato-Temple bound, and a Sturm-count
certificate) serves only the benchmark's ``radial`` workload.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple,
                    Sequence, Union)

from . import spectral
from .spectral import ModelParams

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "UnderResolved",
    "RadialState",
    "RadialGrid",
    "exponents",
    "twist_exponents",
    "radial_t",
    "radial_rho",
    "radial_norm2_t",
    "radial_norm2_rho",
    "gram_identities",
    "ode_channel",
    "kepler_ode",
    "oscillator_ode",
    "kepler_residual",
    "eigensolve",
    "galerkin_channel",
    "laguerre_certified",
    "EIGENSOLVE_TOL",
    "default_t_max",
    "oscillator_residual",
]

ArrayLike = Union[float, list, "np.ndarray"]


class UnderResolved(ValueError):
    """A numerical route's guard found its grid or domain too small.

    It is a ``ValueError`` about the grid the route sized, not about the
    caller's arguments.
    """


# the oscillator table's scale and rate, the same for every state
_OSCILLATOR_ENVELOPE = (Fraction(1), Fraction(1, 2))
_TWIST_POWER = Fraction(-5, 2)  # the twist's power of r, for every state


class _RadialState(NamedTuple):
    params: ModelParams
    k: int
    l: int


class RadialState(_RadialState):
    """One bound state (k, l) of the model ``params``.

    No ``__slots__``: the instance dict holds the cached ``ell``, ``nu``
    and exponent tables, which the norms and the profiles read.
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
        """The principal number k + ell + n - 1, half the oscillator level."""
        return Fraction(self.oscillator_level, 2)

    @cached_property
    def _exponents(self) -> dict[str, tuple[Fraction, ...]]:
        """The tables of :func:`exponents`, built once.  The t and rho
        tables share the scale 2/nu and the rate 1/nu; the rho form is
        rho^{5/2} R(rho^2)."""
        scale, rate = 2 / self.nu, 1 / self.nu
        return {"t": (self.ell, scale, rate),
                "rho": (Fraction(2 * self.two_ell + 5, 2), scale, rate),
                "oscillator": (Fraction(self.two_ell), *_OSCILLATOR_ENVELOPE)}

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
        import numpy as np
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
        import numpy as np
        return RadialGrid(np.linspace(lo, hi, num), weight_exponent)


def _laguerre(a, m, x):
    """L^a_m(x) at a float or a float array x by the recurrence in the
    degree, 0 for m < 0."""
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


def _sampled(x: ArrayLike, name: str,
             fun: Callable[[float], tuple[float, float]]) -> ArrayLike:
    """sign * exp(log-magnitude), ``fun``'s pair at one float, at each of
    the positive points ``x``: a float for a number (or a 0-d array), a
    list for a list, an ndarray of the same shape for an ndarray.  A
    sample is finite whenever its value is, even where a factor alone is
    not, and reads inf past the double range."""
    def samples(points: list[float]) -> list[float]:
        if any(v <= 0.0 for v in points):
            raise ValueError(f"{name} must be positive")
        return [_exp(*fun(v)) for v in points]
    if isinstance(x, list):
        return samples([float(v) for v in x])
    if getattr(x, "ndim", 0) == 0:
        return samples([float(x)])[0]
    import numpy as np  # x is an ndarray, so numpy is loaded already
    arr = np.asarray(x, dtype=float)
    return np.array(samples(arr.ravel().tolist())).reshape(arr.shape)


def _exp(sign: float, logmag: float) -> float:
    """sign * exp(logmag), and sign * inf where math.exp overflows."""
    try:
        return sign * math.exp(logmag)
    except OverflowError:  # past the double range
        return sign * math.inf


# ---------------------------------------------------------------------------
# closed-form profiles and norms


def _log(q: Fraction) -> float:
    """log of a positive rational whose float value may overflow."""
    return math.log(q.numerator) - math.log(q.denominator)


def exponents(s: RadialState, coordinate: str) -> tuple[Fraction, ...]:
    """(power, scale, rate) of the bare profile x^power L^a_m(scale u)
    e^{-rate u}, u = t in "t" and u = x^2 in "rho" and "oscillator"."""
    return s._exponents[coordinate]


def twist_exponents(s: RadialState) -> tuple[Fraction, Fraction]:
    """(power, c^2) of the twist r^power R_rho(c r): (-5/2, nu/2)."""
    return _TWIST_POWER, s.nu / 2


def _shape(s: RadialState, coordinate: str) -> tuple:
    """What :func:`_profile` reads of ``s`` in ``coordinate``, formed once
    per state: (squared, a, m, power, 1/scale, 1/rate), squared when u =
    x^2, with the Laguerre index a and degree m, and the
    :func:`exponents` as floats.  1/scale and 1/rate are nu/2 and nu,
    exact: each product with them rounds once."""
    power, scale, rate = exponents(s, coordinate)
    return (coordinate != "t", s.laguerre_index, s.laguerre_degree,
            float(power), float(1 / scale), float(1 / rate))


def _profile(shape: tuple, x: float,
             log_factor: float = 0.0) -> tuple[float, float]:
    """(sign, log-magnitude) of the profile ``shape`` (see :func:`_shape`)
    at the positive float x, times exp(``log_factor``): -log(N)/2
    normalizes it."""
    squared, a, m, power, inv_scale, inv_rate = shape
    u = x * x if squared else x
    lag = _laguerre(a, m, u / inv_scale)
    if lag == 0.0:  # a Laguerre node, where math.log raises
        return 0.0, -math.inf
    return math.copysign(1.0, lag), power * math.log(x) \
        + math.log(abs(lag)) - u / inv_rate + log_factor


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
    shape = _shape(s, "t")
    return _sampled(t, "t", lambda x: _profile(shape, x, log_factor))


def radial_rho(s: RadialState, rho: ArrayLike, normalized: bool = False) -> ArrayLike:
    """The rho-coordinate profile; unit norm in L^2(rho^{4n-4} d rho) if requested."""
    log_factor = -0.5 * _log(radial_norm2_rho(s)) if normalized else 0.0
    shape = _shape(s, "rho")
    return _sampled(rho, "rho", lambda x: _profile(shape, x, log_factor))


def gram_identities(p: ModelParams, l: int, k_max: int = 6) -> list[bool]:
    """Whether <R_i, R_j> = delta_ij ``radial_norm2_t``(R_i) holds exactly
    in L^2(t^{2n} dt), for the bare t-profiles R_k, k = 1 .. k_max, of the
    channel (p, l): one outcome per pair i <= j, in row order.

    R = t^power L^a_m(scale t) e^{-rate t} from :func:`exponents`.  With
    scale = sn/sd, m! sd^m L^a_m(scale t) has the int coefficients
    (-1)^i C(m+a, m-i) (m!/i!) sn^i sd^(m-i), as in :func:`_laguerre_int`,
    and a pair integrates term by term to Σ_e conv_e (b+e)!/c^(b+e+1):
    conv the product of the two lists, b = power_i + power_j + 2n (= a+1)
    and c = rate_i + rate_j = cn/cd.  Times cn^(b+K+1), K the top degree,
    each entry is one comparison of ints.  Where b is not a whole number
    (no polynomial times t^ell) the identity fails.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    profiles = []  # power, rate and norm2 as int pairs, D, coefficients
    for k in range(1, k_max + 1):
        s = RadialState(p, k, l)
        power, scale, rate = exponents(s, "t")
        a, m = s.laguerre_index, s.laguerre_degree
        sn, sd = scale.as_integer_ratio()
        profiles.append((
            power.as_integer_ratio(), rate.as_integer_ratio(),
            radial_norm2_t(s).as_integer_ratio(), math.factorial(m) * sd ** m,
            [(-1) ** i * math.comb(m + a, m - i) * math.perm(m, m - i)
             * sn ** i * sd ** (m - i) for i in range(m + 1)]))
    outcomes = []
    for i, ((pn, pd), (rn, rd), norm2, D_i, coef_i) in enumerate(profiles):
        for j, ((qn, qd), (un, ud), _, D_j, coef_j) in \
                enumerate(profiles[i:], i):
            b, rest = divmod(pn * qd + qn * pd + 2 * p.n * pd * qd, pd * qd)
            cn, cd = rn * ud + un * rd, rd * ud
            conv = [0] * (len(coef_i) + len(coef_j) - 1)
            for x, u in enumerate(coef_i):
                for y, v in enumerate(coef_j):
                    conv[x + y] += u * v
            top = len(conv) - 1
            lhs = sum(c * math.factorial(b + e) * cd ** (b + e + 1)
                      * cn ** (top - e) for e, c in enumerate(conv))
            num, den = norm2 if i == j else (0, 1)
            outcomes.append(not rest and den * lhs
                            == num * D_i * D_j * cn ** (b + top + 1))
    return outcomes


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


def ode_channel(s: RadialState, coordinate: str) -> Union[tuple, None]:
    """(n, 2 ell, m, eigenvalue) of ``s``, the arguments of
    :func:`kepler_ode` in "t" and :func:`oscillator_ode` in "oscillator",
    read from the :func:`exponents` its profiles are sampled from.  None
    when 2 ell, twice the t power or the oscillator power, is not whole, or
    the scale and rate are not those of the envelope the reduced operator
    divides out (2/nu and 1/nu in t, nu = ell + m + n; 1 and 1/2 in the
    oscillator).  The energy is ``spectral.energy``, read when called."""
    power, scale, rate = exponents(s, coordinate)
    n, m = s.params.n, s.laguerre_degree
    kepler = coordinate == "t"
    # unit: the envelope's 1/rate, nu in t and 2 in the oscillator
    two_ell, unit = (2 * power, power + m + n) if kepler else (power, 2)
    if two_ell.denominator != 1 or (scale * unit, rate * unit) != (2, 1):
        return None
    return n, two_ell.numerator, m, (spectral.energy(s.params, s.I)
                                     if kepler else s.oscillator_level)


def _residual(P, HP, lam, log_w, scale: float) -> float:
    """max |w (H~P - lam P)| / (scale max |w P|), the envelope w over its
    largest value on the grid, formed in log space."""
    import numpy as np
    w = np.exp(log_w - np.max(log_w))
    return float(np.max(np.abs(w * (HP - lam * P)))
                 / np.max(np.abs(w * P)) / scale)


def kepler_residual(s: RadialState, grid: RadialGrid) -> float:
    """Max residual of H f = E f over |E| max|f|, E = -1/(2 nu^2), on
    ``grid``: scale-free, where over max|f| alone the bound would loosen
    as 1/nu^2.  The energy is ``spectral.energy``, read when called."""
    import numpy as np
    t, nu = grid.points, float(s.nu)
    P, HP = _kepler_reduced(t, s.params.n, s.two_ell, s.laguerre_degree)
    E, D = float(spectral.energy(s.params, s.I)), 4 * nu * t  # D = 2tV
    return _residual(P, HP / (2 * D * D), E,
                     float(s.ell) * np.log(t) - t / nu, abs(E))


def oscillator_residual(s: RadialState, grid: RadialGrid) -> float:
    """Max relative residual of (-Lap/2 + r^2/2) f = (2I + sigma_bar + 2n) f
    on ``grid``."""
    import numpy as np
    r = grid.points
    x = r * r
    P, HP = _oscillator_reduced(x, s.params.n, s.two_ell, s.laguerre_degree)
    return _residual(P, HP / (2 * x), s.oscillator_level,
                     s.two_ell * np.log(r) - x / 2, 1.0)


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
    the command line and the gate use :func:`laguerre_certified`.

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
    ends (the first node is t_max/grid_size): a tridiagonal T.  The levels
    of the same stencil on min(grid_size, 1000) points start
    Rayleigh-quotient iterations on T, each first shifted by its coarse
    level and started from its coarse eigenvector (one solve, pinned to 0
    at both ends and interpolated onto the full grid; ones if that solve
    meets a zero pivot, or if the two stencils are one).  An iteration
    stops at the Kato-Temple bound r^2 <= eps |mu| delta / 2, r the
    residual of the Rayleigh quotient mu and delta the distance from mu to
    the nearest other coarse level, where mu is within half an ulp of a
    level; failing that, once r stops falling.  A level typically takes
    one solve on the full grid.  Disjoint residual intervals and one Sturm
    count, of ``count`` levels between min V and the next start, certify
    the levels.  A boundary detector rejects any eigenvector with more
    than 1e-8 of its mass in the outer percent of the domain.

    Raises
    ------
    ValueError
        If the grid is too coarse or too many eigenvalues are requested.
    UnderResolved
        If a level is uncertified, or an eigenfunction touches the
        boundary: the domain is too short or the grid too coarse.
    """
    if grid_size < 500:
        raise ValueError("grid_size must be >= 500")
    if not 1 <= count <= 5:
        raise ValueError("count must be between 1 and 5")
    t_max = default_t_max(p, l, count)
    import numpy as np
    from scipy.linalg import eigvalsh_tridiagonal, lapack
    c = (l + p.sigma_bar / 2 + p.n - 1) * (l + p.sigma_bar / 2 + p.n) / 2

    def stencil(size: int):  # the diagonal and off-diagonal on size points
        t = np.arange(1, size) * (t_max / size)
        off = -0.5 * (size / t_max) ** 2
        return c / (t * t) - 1.0 / t - 2.0 * off, np.full(size - 2, off)
    coarse = min(grid_size, 1000)
    cdiag, coff = stencil(coarse)
    lev = eigvalsh_tridiagonal(cdiag, coff, select="i",
                               select_range=(0, count))
    diag, off = stencil(grid_size)
    vals, res = lev.copy(), np.full(count, math.inf)
    vecs = np.empty((count, grid_size - 1))
    for i in range(count):  # Rayleigh-quotient iteration
        x = np.ones(coarse - 1)
        if coarse < grid_size:  # the coarse vector (ones after a zero pivot),
            # pinned to 0 at both ends and interpolated onto the full grid
            y, info = lapack.dgtsv(coff, cdiag - lev[i], coff, x)[3:]
            x = np.interp(np.arange(1, grid_size) / grid_size,
                          np.arange(coarse + 1) / coarse,
                          np.r_[0.0, x if info else y, 0.0])
        mu = lev[i]
        while True:
            x, info = lapack.dgtsv(off, diag - mu, off, x)[3:]
            if info:  # a zero pivot: mu is a level to the last bit
                break
            x /= np.linalg.norm(x)
            Tx = diag * x + np.convolve(x, (off[0], 0.0, off[0]), "same")
            mu = x @ Tx
            r = np.linalg.norm(Tx - mu * x)
            if not r < res[i]:  # the residual stopped falling
                break
            vals[i], res[i], vecs[i] = mu, r, x
            # Kato-Temple: mu is within r^2 / gap of a level, here half an ulp
            gap = np.abs(np.delete(lev, i) - mu).min()
            if r * r <= np.finfo(float).eps * abs(mu) * gap / 2:
                break
    vals[-1] = (vals[-2] + vals[-1]) / 2  # a cut below the next start
    below = eigvalsh_tridiagonal(diag, off, select="v", select_range=(
        diag.min() + 2 * off[0], vals[-1]), tol=1e300)  # from min V up
    if len(below) != count or np.any(np.diff(vals) <= res + np.r_[res[1:], 0]):
        raise UnderResolved(f"levels not certified on {grid_size} points")
    if np.any(np.sum(vecs[:, -(grid_size // 100):] ** 2, axis=1) > 1e-8):
        raise UnderResolved(f"eigenfunction mass at the boundary of t_max="
                            f"{t_max:g} on {grid_size} points")
    return vals[:-1]


# ---------------------------------------------------------------------------
# Laguerre-Galerkin levels, certified by exact Sturm counts


_ROWS = 1000  # the most rows of J' a level reads before it is undecided
# the levels' relative bound in `eigensolve` and the gate: 1/10^10, exactly
EIGENSOLVE_TOL = Fraction(1, 10 ** 10)


def _pencil(two_lam: int) -> Iterator[tuple[int, int, int]]:
    """The rows j = 1, 2, ... of J' in :func:`laguerre_certified`: each
    its diagonal, its squared off-diagonal to row j - 1 (which multiplies
    a zero at j = 1), and its reach 2j + 2λ + 3, at least twice its
    off-diagonal sqrt((j + 1)(j + 2λ + 2)) to row j + 1."""
    for j in itertools.count(1):
        yield (2 * j + two_lam + 2 - (j == 1), j * (j + two_lam + 1),
               2 * j + two_lam + 3)


def _ritz_above(rows: Iterable[tuple[int, int, int]], mu: Fraction,
                first: Union[int, float] = 1,
                ) -> Iterator[tuple[int, Union[int, float]]]:
    """After each of ``rows`` (:func:`_pencil`), how many eigenvalues of
    J' y = μ diag(j) y, J' the rows so far, lie strictly above ``mu`` =
    u/v, and how many once the last diagonal of J' gains half its reach:
    the positive pivots of v J' - u diag(j), the sign agreements of its
    leading minors, ints by the three-term recurrence (Barth, Martin and
    Wilkinson, Numer. Math. 9, 1967).  A zero minor reads as a negative
    pivot, as the pivots do just above ``mu``, where each falls, so a
    value equal to ``mu`` is not counted.  No division is made.  The
    raised count is formed from row ``first`` on, and reads inf before
    it."""
    u, v = mu.numerator, mu.denominator
    vv = v * v
    above, prev, cur, sign = 0, 0, 1, 1  # minors k - 2 and k - 1, the sign
    for j, (diag, off2, reach) in enumerate(rows, 1):
        prev, cur = cur, (v * diag - u * j) * cur - vv * off2 * prev
        # twice the last minor, its diagonal raised by v reach/2
        capped = (above + ((2 * cur + v * reach * prev) * sign > 0)
                  if j >= first else math.inf)
        above, sign = (above + 1, sign) if cur * sign > 0 else (above, -sign)
        yield above, capped


def galerkin_channel(p: ModelParams, l: int, count: int) -> tuple:
    """(2λ, (E_0, ..., E_{count-1})), the :func:`laguerre_certified`
    arguments of the lowest ``count`` levels of the channel (p, l), with
    E_i = ``spectral.energy``(p, l + i) read when called."""
    return (RadialState(p, 1, l).laguerre_index - 1,
            tuple(spectral.energy(p, l + i) for i in range(count)))


def laguerre_certified(two_lam: int, energies: Sequence[Fraction],
                       tol: Union[float, Fraction]) -> list[bool]:
    """Whether the Laguerre-Galerkin levels of channel 2λ certify each of
    the exact energies ``energies`` = E_0, E_1, ..., to the relative
    ``tol``, in exact arithmetic.  A float ``tol`` is read as its exact
    binary value, so a decimal one is best given as a ``Fraction``: 1e-10
    is 7737125245533627/2^86, and the Sturm minors grow with it.

    With u = t^n R the radial equation is -u''/2 + [λ(λ+1)/(2t^2) - 1/t] u
    = E u, λ = ell + n - 1, so the levels depend on (p, l) only through
    2λ = a - 1, a the Laguerre index of the closed-form states.  The basis
    is the Coulomb Sturmians S_j = x^{λ+1} e^{-x/2} L^α_j(x), j < N, with
    N the basis size, x = 2κt, κ = 1/(λ+1) and α = 2λ+1, normalized so
    that ∫ x^α e^{-x} L_i L_j dx = δ_ij.  S_0 is the ground state, and the
    Sturmian equation gives H S_j = (jκ/t) S_j - (κ^2/2) S_j.  The 1/t
    Gram matrix is then the identity and the overlap is J/(2κ), J the
    Jacobi matrix of x^α e^{-x}, so the levels solve diag(j) y = ν J y
    with E = κ^2 (2ν - 1/2) (Rotenberg, Ann. Phys. 19, 1962).  Its root ν
    = 0 is the ground state, and the Schur complement of the j = 0 row
    leaves J' y = μ diag(j) y, μ = 1/ν and j = 1 .. N-1: J' has the
    diagonal 2λ+3 at j = 1 and 2j+2λ+2 after, and the squared
    off-diagonal j(j+2λ+1) between j-1 and j.  A level E is μ = 2κ^2/(E +
    κ^2/2); the exact level i is μ_i = (2λ+2+2i)^2/(i(2λ+2+i)).

    Ritz levels lie above the true ones (Hylleraas and Undheim, Z. Phys.
    65, 1930), so after r rows of J' the Ritz count above a μ is at most
    the true count.  The raised count of :func:`_ritz_above` is at least
    it once (μ - 4)(r + 1) >= 4λ + 4: as 2b y_r y_{r+1} <= |b| (y_r^2 +
    y_{r+1}^2), each row j > r of J' - μ diag(j), a half reach on each
    side, sums to at most 4j + 4λ + 4 - μj <= 0 (Gershgorin), and adds no
    positive direction.  Level 0 is certified when E_0 = -κ^2/2; level i
    >= 1 when the counts show at most i - 1 true levels below E_i (1 +
    tol/1000) and at least i below E_i (1 - tol), and fails when they
    show level i outside, or E_i is at or below the ground state.  Each
    count bounds at every r, so the first row to decide a level decides it
    for good; one undecided after ``_ROWS`` rows fails, with all after it.

    Raises
    ------
    ValueError
        If 2λ is negative.
    """
    if two_lam < 0:
        raise ValueError("two_lam must be >= 0")
    kappa2, tol = Fraction(4, (two_lam + 2) ** 2), Fraction(tol)

    def counts(E: Fraction) -> Iterator[tuple[int, Union[int, float]]]:
        # above the μ of E, the raised count from the first row r at
        # which it bounds: (μ - 4)(r + 1) >= 4λ + 4
        mu = 2 * kappa2 / (E + kappa2 / 2)
        first = (math.ceil((2 * two_lam + 4) / (mu - 4)) - 1 if mu > 4
                 else math.inf)
        return _ritz_above(_pencil(two_lam), mu, first)

    def decided(i: int, E: Fraction) -> Union[bool, None]:  # None: budget
        rows = zip(counts(E * (1 + tol / 1000)), counts(E * (1 - tol)))
        for (low, low_max), (high, high_max) in itertools.islice(rows, _ROWS):
            if low >= i or high_max < i:  # true level i is outside
                return False
            if low_max < i <= high:
                return True
        return None

    verdicts = list(itertools.takewhile(lambda ok: ok is not None, (
        E == -kappa2 / 2 if i == 0 else E > -kappa2 / 2 and decided(i, E)
        for i, E in enumerate(energies))))
    return verdicts + [False] * (len(energies) - len(verdicts))
