"""Exact representation-theory oracles.

The frozen dimension values below are classical: fundamental and small
tensor representations of SU(m) and Sp(m) whose dimensions are standard
table entries, recomputed here by hand from the product formula before
being frozen.
"""

import math
import random
import types
from fractions import Fraction

import pytest

from qkepler import rep
from qkepler.rep import (
    HighestWeight,
    RootSystem,
    angular_eigenvalue,
    casimir,
    character_inner,
    dim_R_l,
    schur_norm,
    sp1_character,
    weyl_dim,
)


def test_highest_weight_storage_and_errors():
    hw = HighestWeight([1, Fraction(1, 2), 0])
    assert hw.twice == (2, 1, 0)
    assert hw.entries == (Fraction(1), Fraction(1, 2), Fraction(0))
    with pytest.raises(ValueError):
        HighestWeight([Fraction(1, 3)])


def shifted(hw, c):
    """The weight plus the constant vector c*(1, ..., 1)."""
    return HighestWeight([e + Fraction(c) for e in hw.entries])


def test_highest_weight_shift_and_conjugate():
    hw = HighestWeight([2, 1, 0])
    assert shifted(hw, 1).entries == (3, 2, 1)
    assert hw.conjugate().entries == (0, -1, -2)
    assert hw.conjugate().conjugate() == hw


def test_root_system_validation():
    with pytest.raises(ValueError):
        RootSystem("B", 2)
    with pytest.raises(ValueError):
        RootSystem("A", 0)


def test_root_counts_and_rho():
    a2 = RootSystem("A", 2)
    assert len(a2.positive_roots()) == 3
    assert a2.rho() == (1, 0, -1)
    c2 = RootSystem("C", 2)
    assert len(c2.positive_roots()) == 4
    assert c2.rho() == (2, 1)
    c3 = RootSystem("C", 3)
    assert c3.rho() == (3, 2, 1)


# SU(m) dimensions: (1,0,0) -> 3, adjoint (2,1,0) -> 8, and the SU(4)
# family used by the weight bookkeeping downstream.
A_TABLE = [
    (2, (1, 0, 0), 3),
    (2, (1, 1, 0), 3),
    (2, (2, 1, 0), 8),
    (2, (3, 0, 0), 10),
    (3, (1, 0, 0, 0), 4),
    (3, (1, 1, 0, 0), 6),
    (3, (1, 1, 1, 0), 4),
    (3, (2, 0, 0, 0), 10),
    (3, (2, 1, 0, 0), 20),
    (3, (2, 2, 0, 0), 20),
    (1, (5, 0), 6),
]

# Sp(m) dimensions: defining, traceless 2-forms, symmetric squares.
C_TABLE = [
    (1, (1,), 2),
    (1, (3,), 4),
    (2, (1, 0), 4),
    (2, (1, 1), 5),
    (2, (2, 0), 10),
    (2, (2, 1), 16),
    (2, (2, 2), 14),
    (3, (1, 0, 0), 6),
    (3, (1, 1, 0), 14),
    (3, (1, 1, 1), 14),
    (3, (2, 0, 0), 21),
]


@pytest.mark.parametrize("rank, weight, dim", A_TABLE)
def test_weyl_dim_type_a(rank, weight, dim):
    assert weyl_dim(RootSystem("A", rank), HighestWeight(weight)) == dim


@pytest.mark.parametrize("rank, weight, dim", C_TABLE)
def test_weyl_dim_type_c(rank, weight, dim):
    assert weyl_dim(RootSystem("C", rank), HighestWeight(weight)) == dim


def test_weyl_dim_shift_invariance_type_a():
    # type A dimensions depend only on entry differences
    rs = RootSystem("A", 3)
    hw = HighestWeight([3, 1, 1, 0])
    base = weyl_dim(rs, hw)
    assert weyl_dim(rs, shifted(hw, 2)) == base
    assert weyl_dim(rs, shifted(hw, Fraction(1, 2))) == base
    assert weyl_dim(rs, shifted(hw, -5)) == base


def test_weyl_dim_conjugate_invariance_type_a():
    rs = RootSystem("A", 3)
    hw = HighestWeight([4, 2, 1, 0])
    assert weyl_dim(rs, hw.conjugate()) == weyl_dim(rs, hw)


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(RootSystem("C", 2), HighestWeight([1, 2]))
    with pytest.raises(ValueError):
        weyl_dim(RootSystem("C", 2), HighestWeight([1, -1]))
    with pytest.raises(ValueError):
        weyl_dim(RootSystem("A", 2), HighestWeight([1, 0]))


def weyl_dim_fraction(rs, hw):
    """The Weyl product as Fraction dot products over the dense positive
    roots, an independent route to ``weyl_dim``."""
    rho = rs.rho()
    lam_rho = [a + b for a, b in zip(hw.entries, rho)]
    out = Fraction(1)
    for alpha in rs.positive_roots():
        out *= (sum(a * c for a, c in zip(lam_rho, alpha))
                / sum(r * c for r, c in zip(rho, alpha)))
    assert out.denominator == 1
    return int(out)


def random_dominant(rng, rs):
    """Non-increasing entries; for A shifted by a random half integer,
    for C non-negative."""
    entries = sorted((rng.randint(0, 9) for _ in range(rs.weight_length)),
                     reverse=True)
    hw = HighestWeight(entries)
    return shifted(hw, Fraction(rng.randint(-9, 9), 2)) \
        if rs.family == "A" else hw


def test_weyl_dim_matches_fraction_product():
    rng = random.Random(20)
    for _ in range(150):
        rs = RootSystem(rng.choice("AC"), rng.randint(1, 12))
        hw = random_dominant(rng, rs)
        assert weyl_dim(rs, hw) == weyl_dim_fraction(rs, hw)


def test_weyl_dim_at_rank_32():
    rs = RootSystem("C", 32)
    hw = HighestWeight([40 + 12, 40] + [0] * 30)
    assert weyl_dim(rs, hw) == weyl_dim_fraction(rs, hw) \
        == dim_R_l(32, 12, 40)


def test_rho_is_half_the_doubled_rho():
    for rs in (RootSystem("A", 5), RootSystem("C", 4)):
        assert rs.rho() == tuple(Fraction(r, 2) for r in rs.rho_twice())
        assert rs.rho_twice() == tuple(
            sum(col) for col in zip(*rs.positive_roots()))


def test_casimir_sp1():
    for s in range(9):
        assert casimir(RootSystem("C", 1), HighestWeight([s])) == s * (s + 2)


def test_casimir_closed_form_type_c():
    # <lam, lam + 2 rho> = sum_i lam_i (lam_i + 2(n+1-i))
    for n in (2, 3, 4):
        rs = RootSystem("C", n)
        for lam in [(3, 1) + (0,) * (n - 2), (2, 2) + (0,) * (n - 2),
                    (5, 0) + (0,) * (n - 2)]:
            expected = sum(li * (li + 2 * (n - i)) for i, li in enumerate(lam))
            assert casimir(rs, HighestWeight(lam)) == expected


def test_casimir_requires_dominant():
    with pytest.raises(ValueError):
        casimir(RootSystem("C", 2), HighestWeight([0, 1]))


@pytest.mark.parametrize("n, sigma_bar, l, dim", [
    (2, 0, 0, 1),
    (2, 0, 1, 5),
    (2, 0, 2, 14),
    (2, 0, 3, 30),
    (2, 1, 0, 4),
    (2, 1, 1, 16),
    (2, 2, 0, 10),
    (3, 0, 1, 14),
    (3, 1, 0, 6),
])
def test_dim_closed_form_frozen(n, sigma_bar, l, dim):
    assert dim_R_l(n, sigma_bar, l) == dim


def test_dim_closed_form_raises_on_a_remainder(monkeypatch):
    # with C(3, 1) + 1 = 4 and C(1, 0) + 1 = 2 the product at (2, 1, 0) is
    # 2 * 4 * 4 * 2 = 64 over (1+1) * 3 = 6, not an integer
    monkeypatch.setattr(rep, "math", types.SimpleNamespace(
        comb=lambda a, b: math.comb(a, b) + 1))
    with pytest.raises(ArithmeticError):
        dim_R_l(2, 1, 0)


def test_dim_closed_form_validation():
    with pytest.raises(ValueError):
        dim_R_l(1, 0, 0)
    with pytest.raises(ValueError):
        dim_R_l(2, -1, 0)


def test_angular_eigenvalue_untwisted_small():
    # sigma_bar = 0 reduces to 4 l (l + 2n - 1)
    assert angular_eigenvalue(2, 0, 1) == 16
    assert angular_eigenvalue(3, 0, 2) == 56


def test_sp1_character_values():
    for s in range(8):
        chi = sp1_character(s)
        assert chi.terms == {s - 2 * j: 1 for j in range(s + 1)}
        # at z = 1 and z = -1, the centre of Sp(1)
        assert sum(chi.terms.values()) == s + 1
        assert sum(c * (-1) ** e for e, c in chi.terms.items()) \
            == (s + 1) * (-1) ** s
    with pytest.raises(ValueError):
        sp1_character(-1)


def test_sp1_character_clebsch_recurrence():
    # chi_1 chi_s = chi_{s+1} + chi_{s-1}, exactly
    for s in range(1, 12):
        assert sp1_character(1) * sp1_character(s) \
            == sp1_character(s + 1) + sp1_character(s - 1)


def test_schur_orthonormality():
    for s in range(21):
        norm = schur_norm(s)
        assert type(norm) is int and norm == 1
    for s1 in range(11):
        for s2 in range(s1 + 1, 12):
            inner = character_inner(s1, s2)
            assert type(inner) is int and inner == 0
            assert character_inner(s2, s1) == 0
