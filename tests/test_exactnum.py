"""Tests for the exact coefficient rings."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmres.exactnum import EpsSeries, is_unit

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def series(order=4, nonzero_constant=False):
    constant = (
        rationals.filter(lambda c: c != 0) if nonzero_constant else rationals
    )
    return st.builds(
        lambda c0, rest: EpsSeries([c0, *rest], order),
        constant,
        st.lists(rationals, min_size=order, max_size=order),
    )


class TestRational:
    def test_small_arithmetic(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)

    def test_serialization(self):
        assert str(Fraction(-3, 6)) == "-1/2"
        assert str(Fraction(7)) == "7"
        assert Fraction("-5/6") == Fraction(-5, 6)

    @given(st.integers(-500, 500), st.integers(-500, 500).filter(bool))
    def test_canonical_form(self, p, q):
        from math import gcd

        r = Fraction(p, q)
        assert r.denominator > 0
        assert gcd(abs(r.numerator), r.denominator) == 1

    @given(rationals, rationals, rationals)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(rationals.filter(lambda x: x != 0))
    def test_multiplicative_inverse(self, a):
        assert a * (1 / a) == 1


class TestEpsSeries:
    def test_geometric_inverse_identity(self):
        one_plus = EpsSeries.linear(1, 1, 3)
        geom = EpsSeries([1, -1, 1, -1])
        assert one_plus * geom == EpsSeries.constant(1, 3)

    def test_invert_two_plus_eps(self):
        # long division by hand: 1/(2+e) = 1/2 - e/4 + e^2/8
        inv = EpsSeries.linear(2, 1, 2).inverse()
        assert inv.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))

    def test_coefficient_extraction(self):
        geo = EpsSeries.linear(1, 1, 3).inverse()
        assert geo.coefficient(1) == -1
        assert EpsSeries([5, 2, 9]).coefficient(0) == 5
        # binomial expansion: [e^2] (1+e)^-4 = C(5,2) = 10
        quartic = EpsSeries.linear(1, 1, 2) ** (-4)
        assert quartic.coefficient(2) == 10

    def test_coefficient_out_of_range(self):
        s = EpsSeries([1, 2, 3])
        with pytest.raises(IndexError):
            s.coefficient(3)
        with pytest.raises(IndexError):
            s.coefficient(-1)

    def test_truncation_to_smaller(self):
        a = EpsSeries([1, 1], order=5)
        b = EpsSeries([1, 2, 3], order=2)
        assert (a * b).order == 2
        assert (a + b).order == 2

    def test_zero_constant_term_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            EpsSeries.eps(3).inverse()
        with pytest.raises(ZeroDivisionError):
            1 / EpsSeries.eps(3)

    def test_mixed_number_arithmetic(self):
        s = EpsSeries.linear(1, 1, 2)
        assert Fraction(1, 2) * s == EpsSeries([Fraction(1, 2), Fraction(1, 2)], 2)
        assert 1 + EpsSeries.eps(2) == s
        assert (s - 1).coefficient(0) == 0

    def test_equality_up_to_common_order(self):
        assert EpsSeries([1, 2], 1) == EpsSeries([1, 2, 7], 2)
        assert EpsSeries([1, 2], 1) != EpsSeries([1, 3], 1)
        assert EpsSeries.constant(3, 4) == 3

    def test_hash_consistency(self):
        assert hash(EpsSeries([1, 2, 0])) == hash(EpsSeries([1, 2, 0, 0, 0]))

    def test_is_unit(self):
        assert is_unit(EpsSeries([1, 5]))
        assert not is_unit(EpsSeries.eps(2))
        assert is_unit(Fraction(-3))
        assert not is_unit(Fraction(0))

    def test_negative_power(self):
        s = EpsSeries.linear(1, 1, 4)
        assert s ** (-2) * s ** 2 == EpsSeries.constant(1, 4)

    @given(series(), series(), series())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60)
    @given(series(nonzero_constant=True))
    def test_inverse_roundtrip(self, p):
        assert p * p.inverse() == EpsSeries.constant(1, p.order)
