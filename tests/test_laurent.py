from fractions import Fraction

from qkepler.laurent import Laurent


def test_zero_terms_are_dropped():
    p = Laurent({2: 1, -1: Fraction(3, 2)})
    assert (p - p).terms == {}
    assert Laurent({0: 0}) == Laurent({})
    assert p + Laurent({2: -1}) == Laurent({-1: Fraction(3, 2)})


def test_product_derivative_and_power():
    p = Laurent({1: 1, -1: 1})  # z + 1/z
    assert p * p == Laurent({2: 1, 0: 2, -2: 1})
    assert 3 * p == p * 3 == Laurent({1: 3, -1: 3})
    assert p.derivative() == Laurent({0: 1, -2: -1})
    half = Laurent.monomial(Fraction(3, 2))
    assert half.derivative() == Laurent({Fraction(1, 2): Fraction(3, 2)})
    assert p.at_power(2) == Laurent({2: 1, -2: 1})
    assert (p * p).coefficient(0) == 2 and p.coefficient(5) == 0
