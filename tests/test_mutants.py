"""The gate's mutants, in one table.

Each entry of ``MUTANTS`` is a semantic mutant of the library (DeMillo,
Lipton and Sayward, IEEE Computer 11(4), 1978): its id, a function that
installs it with ``monkeypatch``, and the exact rows of ``verify all``
it fails, in order, as {name: (lhs, rhs)}.  A fault row, a check that
raised, is given by a prefix of its lhs, the exception, and rhs None.
One runner installs each entry and runs the gate in process.  The
command-level controls in ``test_cli`` and the library-level ones in
``test_radial`` and ``test_qlinalg`` install their mutants from here, so
each mutant is defined once.  A new mutant is one more entry, with the
rows that ``verify all --format json`` fails under it; a test asserts
that each check of ``checks.REGISTRY`` fails a row under some entry.
"""

import json
import math
import types
from fractions import Fraction

import pytest

from qkepler import checks, qlinalg, radial, rep, spectral
from qkepler.cli import run
from qkepler.laurent import Laurent
from qkepler.rep import HighestWeight


def swap_ktype_weight(monkeypatch):
    """Swap the last two entries of each K-type weight: not dominant."""
    original = spectral.ktype_weight

    def swapped(p, I):
        *head, a, b = original(p, I).entries
        return HighestWeight([*head, b, a])
    monkeypatch.setattr(spectral, "ktype_weight", swapped)


def micz_at_wrong_charge(monkeypatch):
    """Compare with the five-dimensional operator at charge sigma_bar + 1."""
    original = spectral._micz_radial
    monkeypatch.setattr(spectral, "_micz_radial",
                        lambda phi, sb: original(phi, sb + 1))


def character_without_lowest_weight(monkeypatch):
    original = rep.sp1_character

    def chi(sb):
        terms = dict(original(sb).terms)
        del terms[-sb]
        return Laurent(terms)
    monkeypatch.setattr(rep, "sp1_character", chi)


def weyl_density_constant_term(monkeypatch):
    """The Weyl density cut to its constant term: |chi_s|^2 integrates to
    s + 1."""
    monkeypatch.setattr(rep, "_WEYL_DENSITY", {0: 2})


def galerkin_off_channel(monkeypatch):
    """Certify on the radial channel lambda + 1/2 in place of lambda."""
    original = radial.laguerre_certified
    monkeypatch.setattr(radial, "laguerre_certified", lambda two_lam, *rest:
                        original(two_lam + 1, *rest))


def galerkin_pencil_perturbed(monkeypatch):
    """The diagonal of J' one more at j = 5."""
    original = radial._pencil

    def pencil(two_lam):
        for j, (diag, off2, reach) in enumerate(original(two_lam), 1):
            yield diag + (j == 5), off2, reach
    monkeypatch.setattr(radial, "_pencil", pencil)


def exponents_off(coordinates, power=0, scale=1, rate=1):
    """The exponents (p, c, r) of the tables named in ``coordinates`` read
    as (p + ``power``, c * ``scale``, r * ``rate``); the other tables stay
    as they are."""
    def mutate(monkeypatch):
        original = radial.exponents

        def exponents(s, coordinate):
            p, c, r = original(s, coordinate)
            if coordinate in coordinates:
                return p + power, c * scale, r * rate
            return p, c, r
        monkeypatch.setattr(radial, "exponents", exponents)
    return mutate


def energy_scaled(factor):
    """Every Kepler energy scaled by ``factor``."""
    def mutate(monkeypatch):
        original = spectral.energy
        monkeypatch.setattr(spectral, "energy",
                            lambda p, I: original(p, I) * factor)
    return mutate


def norm_off_by_a_billionth(monkeypatch):
    """Every closed-form t-norm scaled by 1 + 1e-9."""
    original = radial.radial_norm2_t
    monkeypatch.setattr(radial, "radial_norm2_t", lambda s: (
        original(s) * (1 + Fraction(1, 10 ** 9))))


def genfunc_one_short(monkeypatch):
    """Every route stops at k = 11: twelve coefficients that agree."""
    original = spectral.genfunc_check
    monkeypatch.setattr(spectral, "genfunc_check", lambda n, K: (
        spectral.GenfuncCheck(*(route[:-1] for route in original(n, K)))))


def binomial_route_off_at_five(monkeypatch):
    """The binomial route off by one at k = 5 only."""
    original = spectral.oscillator_level_dim
    monkeypatch.setattr(spectral, "oscillator_level_dim",
                        lambda n, k: original(n, k) + (k == 5))


def readback_off_in_one_channel(monkeypatch):
    """2x H~P off by P on the oscillator channel 2 ell = 2, m = 0, which
    two states share at each n, (sbar, l) = (0, 1), (2, 0): the identity
    no longer reads their level back."""
    original = radial._oscillator_reduced

    def reduced(x, n, L, m):
        P, HP = original(x, n, L, m)
        return P, HP + P if (L, m) == (2, 0) else HP
    monkeypatch.setattr(radial, "_oscillator_reduced", reduced)


def coulomb_halved(monkeypatch):
    """The Kepler operator with -1/(2t) in place of -1/t: its term
    -8tV^2 P of 2D^2 H~P read as -4tV^2 P."""
    original = radial._kepler_reduced

    def reduced(t, n, two_ell, m):
        P, HP = original(t, n, two_ell, m)
        V = two_ell + 2 * (m + n)
        return P, HP + 4 * t * V * V * P
    monkeypatch.setattr(radial, "_kepler_reduced", reduced)


def potential_doubled(monkeypatch):
    """The oscillator with r^2 in place of r^2/2: its term x^2 P of
    2x H~P read as 2x^2 P."""
    original = radial._oscillator_reduced

    def reduced(x, n, L, m):
        P, HP = original(x, n, L, m)
        return P, HP + x * x * P
    monkeypatch.setattr(radial, "_oscillator_reduced", reduced)


def product_table(component):
    """The table ``qlinalg.MUL`` with each entry MUL[r][s][k] replaced by
    ``component(r, s, k, MUL[r][s][k])``."""
    return tuple(tuple(tuple(component(r, s, k, c) for k, c in enumerate(row))
                       for s, row in enumerate(rows))
                 for r, rows in enumerate(qlinalg.MUL))


def lower_block_in_the_uv_frame(monkeypatch):
    """The lower block -J X J of the (U, conj V) frame, in place of
    -J conj(X) J."""
    J = checks._jmat
    monkeypatch.setattr(checks, "_lower_block", lambda X, n: {
        key: -v for key, v in
        checks._product(checks._product(J(n), X), J(n)).items()})


def hspace_weight_one_lower(monkeypatch):
    """(-1, ..., -1, -(2 + sbar)): a highest weight one step off in its
    last entry."""
    monkeypatch.setattr(spectral, "hspace_weight", lambda p: HighestWeight(
        [-1] * (2 * p.n - 1) + [-(2 + p.sigma_bar)]))


def energy_kl_k_coefficient_one(monkeypatch):
    """E(k, l) with k in place of 2k in its denominator 2k + 2l + sbar +
    2n - 2."""
    monkeypatch.setattr(spectral, "energy_kl", lambda p, k, l: Fraction(
        -2, (k + 2 * l + p.sigma_bar + 2 * p.n - 2) ** 2))


def binomials_one_row_up(monkeypatch):
    """dim R_l with C(a - 1, b) for each binomial C(a, b) of its closed
    form."""
    monkeypatch.setattr(rep, "math", types.SimpleNamespace(
        comb=lambda a, b: math.comb(a - 1, b)))


def setting(module, name, value):
    def mutate(monkeypatch):
        monkeypatch.setattr(module, name, value)
    return mutate


def each(names, lhs, rhs):
    """The rows ``names``, each failed with ``lhs`` and ``rhs``."""
    return {name: (lhs, rhs) for name in names}


MICZ = [f"micz[{sb}]" for sb in range(7)]
EIGENSOLVE = ["eigensolve[n=2]", "eigensolve[n=3]"]
KEPLER = ["kepler-ode[n=2]", "kepler-ode[n=3]"]
OSCILLATOR = ["oscillator-ode[n=2]", "oscillator-ode[n=3]"]
# an energy off by 1e-6 of itself either way: no level certifies, no
# level equals E(k, l), which reads no energy, the Kepler equation fails
# at every point, and the MICZ spectrum no longer matches
ENERGY_ROWS = {**each(EIGENSOLVE, 0, 36),
               **each([f"collapse[n={n}]" for n in (2, 3, 4)], 0, 546),
               **each(KEPLER, 0, 80), **each(MICZ, 5, 6)}

# id: (install, the failed rows of `verify all`, in order), in the order
# of the first check each one fails
MUTANTS = {
    # the Laguerre route converges, but to the neighbouring channel
    "eigensolve-channel": (galerkin_off_channel, each(EIGENSOLVE, 0, 36)),
    # the Ritz levels move off the exact ones, past the enclosure
    "eigensolve-pencil": (galerkin_pencil_perturbed,
                          each(EIGENSOLVE, 12, 36)),
    # two rows of J', as many basis functions as the three levels: the
    # Ritz levels are still upper bounds, but far from converged
    "eigensolve-basis": (setting(radial, "_ROWS", 2),
                         each(EIGENSOLVE, 12, 36)),
    # at a bound of 0 no level above the ground state can be certified
    "eigensolve-tolerance-zero": (setting(radial, "EIGENSOLVE_TOL", 0.0),
                                  each(EIGENSOLVE, 12, 36)),
    "energy-high": (energy_scaled(1 + Fraction(1, 10 ** 6)), ENERGY_ROWS),
    "energy-low": (energy_scaled(1 - Fraction(1, 10 ** 6)), ENERGY_ROWS),
    # E(k, l) then equals no level E(k + l - 1)
    "collapse-k-coefficient": (energy_kl_k_coefficient_one, each(
        [f"collapse[n={n}]" for n in (2, 3, 4)], 0, 546)),
    # the level dimensions read the binomial route too: 12 of 13 agree
    "genfunc-binomial": (binomial_route_off_at_five, each(
        [f"{name}[n={n}]" for name in ("dim-equality", "genfunc")
         for n in (2, 3, 4)], 12, 13)),
    # the closed form no longer divides exactly: each check that reads it
    # is one fault row
    "dims-binomial-index": (binomials_one_row_up, {
        name: ("ArithmeticError: dim R_l product is not an integer", None)
        for name in ("dim-equality", "genfunc", "dims", "ktype-dims")}),
    # the row counts k = 0..12, so a missing coefficient is a fault row
    "genfunc-one-short": (genfunc_one_short, {
        "genfunc": ("IndexError: tuple index out of range", None)}),
    # a raise inside a check is one failed row, named after the check
    "ktype-weight-swapped": (swap_ktype_weight, {"ktype-dims": (
        "ValueError: weight (-1,-1,-2,-1) is not dominant", None)}),
    # the infinitesimal character is then sbar + 2, at every (n, sbar)
    "hspace-weight": (hspace_weight_one_lower,
                      {"inf-character[n<=5]": (0, 28)}),
    "kepler-coulomb": (coulomb_halved, each(KEPLER, 0, 80)),
    "oscillator-potential": (potential_doubled, each(OSCILLATOR, 0, 80)),
    # a channel is checked once but counts every state in it
    "readback-channel": (readback_off_in_one_channel,
                         each(OSCILLATOR, 78, 80)),
    # t^(ell + 1/4) is no polynomial times t^ell: no identity holds, and
    # the Kepler equation reads its channel from the t table
    "orthogonality-t-power": (
        exponents_off(("t",), power=Fraction(1, 4)),
        {**each(KEPLER, 0, 80), "orthogonality[n=2]": (0, 189)}),
    # each pair then integrates against the wrong exponential
    "orthogonality-t-rate": (
        exponents_off(("t",), rate=Fraction(101, 100)),
        {**each(KEPLER, 0, 80), "orthogonality[n=2]": (0, 189)}),
    # L^a_0 = 1 reads no scale: only the nine k = 1 norms still hold
    "orthogonality-t-scale": (
        exponents_off(("t",), scale=Fraction(101, 100)),
        {**each(KEPLER, 0, 80), "orthogonality[n=2]": (9, 189)}),
    # one more power of x in both the rho and the oscillator tables: the
    # twist still composes, the rho profile is off by a factor rho, and
    # the oscillator equation reads its channel from the oscillator table
    "rho-oscillator-power": (exponents_off(("rho", "oscillator"), power=1),
                             each(OSCILLATOR, 0, 80)),
    # the rho power 2 ell + 3/2 in place of 2 ell + 5/2: the twisted power
    # is then 2 ell - 1, not the oscillator's 2 ell
    "twist-rho-power": (exponents_off(("rho",), power=-1),
                        each(["twist[n=2]", "twist[n=3]"], 0, 80)),
    "micz-wrong-charge": (micz_at_wrong_charge, each(MICZ, 2, 6)),
    "micz-shift": (setting(spectral, "_MICZ_SHIFT", Fraction(25, 4)),
                   each(MICZ, 1, 6)),
    # the z-component cross terms flipped: (i j) k = -1 but i (j k) = +1
    "qmul-not-associative": (setting(qlinalg, "MUL", product_table(
        lambda r, s, k, c: -c if k == 3 and {r, s} == {1, 2} else c)),
        each([f"metric[n={n}]" for n in (2, 3, 4)], 0, 16)),
    # (a b)_k = a_k b_k: the trace form reads only real parts, which the
    # mutant still breaks
    "qmul-componentwise": (setting(qlinalg, "MUL", product_table(
        lambda r, s, k, c: int(r == s == k))),
        each([f"{name}[n={n}]" for n in (2, 3, 4)
              for name in ("metric", "quotient")], 0, 16)),
    # only the real basis elements E_ab - E_ba still hold, and the planted
    # unit i lands unconjugated
    "ostar-uv-frame": (lower_block_in_the_uv_frame, {
        "ostar[n=2]": (6, 16), "ostar[n=3]": (15, 36),
        "weight-double[n<=6]": (0, 42)}),
    # chi_s without z^-s: no norm is 1 (chi_1 = z has the class integral
    # -1/2), and the eight pairs s, s + 2 integrate to 1/2
    "schur-lowest-weight": (character_without_lowest_weight, {
        **each([f"schur-norm[{sb}]" for sb in range(11)], 0, 1),
        "schur-cross": (47, 55)}),
    # a norm of s + 1 is one identity that fails, not a value beside 1
    "schur-density": (weyl_density_constant_term, {
        **each([f"schur-norm[{sb}]" for sb in range(1, 11)], 0, 1),
        "schur-cross": (30, 55)}),
    # every diagonal Gram identity fails, exactly
    "orthogonality-norm": (norm_off_by_a_billionth,
                           {"orthogonality[n=2]": (135, 189)}),
}


def install(mutant, monkeypatch):
    """Install the entry ``mutant`` of the catalogue with ``monkeypatch``."""
    MUTANTS[mutant][0](monkeypatch)


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_gate_fails_the_mutant(mutant, monkeypatch, capsys):
    install(mutant, monkeypatch)
    failed = MUTANTS[mutant][1]
    assert run(["verify", "all", "--format", "json"]) == 1
    captured = capsys.readouterr()
    results = json.loads(captured.out)["results"]
    got = [r for r in results if not r["passed"]]
    assert [r["name"] for r in got] == list(failed)
    for r, (lhs, rhs) in zip(got, failed.values()):
        # a fault's lhs is the exception, given by its prefix
        assert (r["lhs"][:len(lhs)] if isinstance(lhs, str) else r["lhs"],
                r["rhs"]) == (lhs, rhs), r["name"]
    if any(isinstance(lhs, str) for lhs, _ in failed.values()):
        assert "Traceback (most recent call last)" in captured.err
    else:
        assert captured.err == ""


def test_every_check_fails_under_some_mutant():
    # a check that no mutant fails has shown nothing; a fault row is
    # named after its check
    failed = {name for _, rows in MUTANTS.values() for name in rows}
    unkilled = [name for name, check in checks.REGISTRY.items()
                if not failed & {name, *(r.name for r in check())}]
    assert unkilled == []
