"""The result and parameter records: immutable, validated, read by name.

Ten records are NamedTuples, so they also compare equal to plain tuples
of their fields; ``HighestWeight``'s one field is its doubled entries.
``RadialGrid`` compares by identity.
"""

from fractions import Fraction

import numpy as np
import pytest

from qkepler import radial, rep, spectral
from qkepler.report import Report, row

P = spectral.ModelParams(3, 2)

RECORDS = {
    "CheckResult": lambda: row("x", lhs=1, rhs=1),
    "Report": lambda: Report("demo", {"n": 2}, (row("x"),), seed=1),
    "EqualityCheck": lambda: spectral.dimension_equality_check(2, 3),
    "GenfuncCheck": lambda: spectral.genfunc_check(2, 4),
    "KtypeCheck": lambda: spectral.ktype_dim_check(P, 2),
    "MiczReport": lambda: spectral.micz_check(1, i_max=2),
    "ModelParams": lambda: P,
    "RootSystem": lambda: rep.RootSystem("C", 2),
    "RadialState": lambda: radial.RadialState(P, 2, 1),
    "HighestWeight": lambda: rep.HighestWeight([2, Fraction(1, 2), 0]),
    "RadialGrid": lambda: radial.RadialGrid.uniform(0.1, 1.0, 5, 6),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    fields = getattr(record, "_fields", None) or type(record).__slots__
    assert fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("make, args, message", [
    (spectral.ModelParams, (1, 0), "n must be >= 2"),
    (spectral.ModelParams, (2, -1), "sigma_bar must be >= 0"),
    (spectral.energy_kl, (P, 0, 0), "k must be >= 1"),
    (spectral.energy_kl, (P, 1, -1), "l must be >= 0"),
    (rep.RootSystem, ("B", 2), "unsupported family 'B'"),
    (rep.RootSystem, ("C", 0), "rank must be positive"),
    (lambda k, l: radial.RadialState(P, k, l), (0, 0), "k must be >= 1"),
    (lambda k, l: radial.RadialState(P, k, l), (1, -1), "l must be >= 0"),
])
def test_validation_messages(make, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(*args)


def test_named_tuples_take_keywords_and_defaults():
    assert spectral.ModelParams(sigma_bar=2, n=3) == P
    assert rep.RootSystem(rank=2, family="C") == rep.RootSystem("C", 2)
    report = Report("demo", {}, ())
    assert (report.seed, report.timestamp) == (None, None)
    stamped = report._replace(timestamp="t")
    assert (stamped.timestamp, stamped.command) == ("t", "demo")
    # the one change from frozen data classes: a plain tuple of the
    # fields compares equal
    assert P == (3, 2) and hash(P) == hash((3, 2))


def test_highest_weight_equality_hash_and_length_follow_entries():
    a = rep.HighestWeight([1, Fraction(1, 2), 0])
    b = rep.HighestWeight([Fraction(2, 2), Fraction(1, 2), 0])
    c = rep.HighestWeight([1, Fraction(1, 2)])
    assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c
    # like the other records, equal to the plain tuple of its one field
    assert a == ((2, 1, 0),) and hash(a) == hash(((2, 1, 0),))


def test_radial_grid_compares_by_identity():
    grid = radial.RadialGrid.uniform(0.1, 1.0, 5, 6)
    same = radial.RadialGrid.uniform(0.1, 1.0, 5, 6)
    assert grid == grid and grid != same
    assert len({grid, same}) == 2


def test_attributes_the_benchmark_reads():
    # perfbench/workloads.py reads these names off the records
    chk = spectral.ktype_dim_check(P, 2)
    assert chk.passed and chk.u2n_dim == chk.sp_sum == spectral.degeneracy(P, 2)
    assert spectral.genfunc_check(3, 5).passed
    assert spectral.dimension_equality_check(3, 5).passed
    assert spectral.ktype_weight(P, 1).entries == (-1, -1, -1, -1, -2, -4)
    s = radial.RadialState(P, 2, 1)
    assert (s.nu, s.laguerre_index, s.laguerre_degree) == (6, 9, 1)
    assert isinstance(s.nu, Fraction) and s.nu is s.nu  # cached
    grid = radial.RadialGrid.uniform(0.1, 1.0, 5, 6)
    assert grid.points.tolist() == np.linspace(0.1, 1.0, 5).tolist()
    assert grid.weight_exponent == 6
    assert Report("demo", {}, (row("x"),)).passed
