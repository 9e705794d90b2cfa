"""Exact scalar arithmetic: rationals and Laurent polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge.errors import NoExactRoot, NonUnitDeterminant, ParseError
from braidforge.rings import (
    LAURENT,
    RATIONAL,
    LaurentPoly,
    fraction_sqrt,
    parse_laurent,
)

T = LaurentPoly.var()

laurent_strategy = st.builds(
    LaurentPoly,
    st.dictionaries(
        st.integers(-4, 4),
        st.fractions(min_value=-10, max_value=10, max_denominator=7),
        max_size=4,
    ),
)


class TestRationalOps:
    def test_addition(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_ring_interface(self):
        assert RATIONAL.coerce(3) == Fraction(3)
        assert RATIONAL.coerce(LaurentPoly.const(Fraction(5, 2))) == Fraction(5, 2)
        assert RATIONAL.unit_inverse(Fraction(2)) == Fraction(1, 2)
        with pytest.raises(NonUnitDeterminant):
            RATIONAL.unit_inverse(Fraction(0))

    def test_sqrt(self):
        assert RATIONAL.sqrt(Fraction(9, 4)) == Fraction(3, 2)
        with pytest.raises(NoExactRoot):
            RATIONAL.sqrt(Fraction(2))


class TestLaurentArithmetic:
    def test_difference_of_squares(self):
        lhs = (T + T**-1) * (T - T**-1)
        assert lhs == T**2 - T**-2

    def test_mul_by_zero(self):
        p = LaurentPoly({-1: Fraction(1, 2), 3: Fraction(-7)})
        assert p * LaurentPoly() == LaurentPoly()
        assert (p * 0).is_zero()

    def test_no_stored_zeros(self):
        p = LaurentPoly({2: 1}) - LaurentPoly({2: 1})
        assert p.coeffs == {}
        assert p.is_zero()

    def test_power_and_unit_inverse(self):
        assert T**-3 == LaurentPoly.monomial(1, -3)
        assert (LaurentPoly.monomial(Fraction(2), 5)).unit_inverse() == (
            LaurentPoly.monomial(Fraction(1, 2), -5)
        )
        with pytest.raises(NonUnitDeterminant):
            (T + 1).unit_inverse()

    def test_exact_division(self):
        num = (T + 1) * (T**-2 - 3)
        assert num.exact_div(T + 1) == T**-2 - 3
        with pytest.raises(ValueError):
            (T + 1).exact_div(T + 2)

    def test_sqrt_monomial(self):
        assert LaurentPoly.monomial(Fraction(9, 4), -2).sqrt_monomial() == (
            LaurentPoly.monomial(Fraction(3, 2), -1)
        )
        with pytest.raises(NoExactRoot):
            LaurentPoly.monomial(1, 3).sqrt_monomial()
        with pytest.raises(NoExactRoot):
            (T + 1).sqrt_monomial()

    @pytest.mark.parametrize("c", [3, Fraction(-7, 2), 0, Fraction(0)])
    def test_constant_hashes_like_its_value(self, c):
        p = LaurentPoly.const(c)
        assert p == c and hash(p) == hash(c)
        assert len({p, c}) == 1

    def test_nonconstant_hashes(self):
        assert hash(T + 1) == hash(1 + T)
        assert {T: "t"}[LaurentPoly.var()] == "t"

    @given(laurent_strategy, laurent_strategy, laurent_strategy)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a

    @given(laurent_strategy, laurent_strategy)
    @settings(max_examples=40, deadline=None)
    def test_exact_division_round_trip(self, a, b):
        if b.is_zero():
            return
        assert (a * b).exact_div(b) == a


class TestTextFormat:
    def test_canonical_text(self):
        p = LaurentPoly({2: 3, -1: Fraction(-1, 2)})
        assert p.text() == "-1/2*T^-1 + 3*T^2"

    def test_constant_and_zero(self):
        assert LaurentPoly.const(1).text() == "1"
        assert LaurentPoly().text() == "0"

    def test_parse_round_trip(self):
        for text in ("0", "1", "-1/2*T^-1 + 3*T^2", "2*T^-3 + -5 + 1/7*T^4"):
            assert parse_laurent(text).text() == text

    def test_parse_rejects_garbage(self):
        for bad in ("", "T", "1 +", "q^2", "1*T^"):
            with pytest.raises(ParseError):
                parse_laurent(bad)

    @given(laurent_strategy)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, p):
        assert parse_laurent(p.text()) == p


class TestFractionSqrt:
    def test_perfect_square(self):
        assert fraction_sqrt(Fraction(49, 64)) == Fraction(7, 8)

    def test_not_a_square(self):
        with pytest.raises(NoExactRoot):
            fraction_sqrt(Fraction(2))
        with pytest.raises(NoExactRoot):
            fraction_sqrt(Fraction(-4))


def test_laurent_ring_interface():
    assert LAURENT.coerce(Fraction(1, 2)) == LaurentPoly.const(Fraction(1, 2))
    assert LAURENT.is_unit(T) and not LAURENT.is_unit(T + 1)
    assert LAURENT.div_int(LaurentPoly.const(3), 2) == LaurentPoly.const(Fraction(3, 2))
    assert LAURENT.sqrt(LaurentPoly.monomial(4, -2)) == LaurentPoly.monomial(2, -1)
    with pytest.raises(NoExactRoot):
        LAURENT.sqrt(T)
