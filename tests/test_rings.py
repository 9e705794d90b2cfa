"""Exact scalar arithmetic: rationals and Laurent polynomials."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge.errors import NoExactRoot, NonUnitDeterminant, ParseError
from braidforge.rings import (
    INTEGER,
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

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=7).filter(bool),
        st.integers(-6, 6),
        st.integers(-8, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_unit_power_matches_repeated_products(self, c, e, n):
        unit = LaurentPoly.monomial(c, e)
        factor = unit if n >= 0 else unit.unit_inverse()
        expected = LaurentPoly.const(1)
        for _ in range(abs(n)):
            expected = expected * factor
        power = unit**n
        assert power == expected
        assert repr(power) == repr(expected)
        assert all(type(x) is Fraction for x in power.coeffs.values())

    def test_unit_power_multiplies_nothing(self, monkeypatch):
        calls = []
        mul = LaurentPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        monkeypatch.setattr(LaurentPoly, "__rmul__", counting)
        powers = (T**-5, LaurentPoly.monomial(Fraction(-2, 3), 3) ** 7, T**0)
        monkeypatch.undo()
        assert calls == []
        assert powers == (
            LaurentPoly.monomial(1, -5),
            LaurentPoly.monomial(Fraction(-128, 2187), 21),
            LaurentPoly.const(1),
        )

    def test_non_unit_powers(self):
        p = T + 1
        assert p**0 == LaurentPoly.const(1)
        assert p**3 == p * p * p
        assert repr(p**2) == "LaurentPoly('1 + 2*T^1 + 1*T^2')"
        zero = LaurentPoly()
        assert zero**0 == LaurentPoly.const(1) and (zero**2).is_zero()
        for x, text in ((p, "LaurentPoly('1 + 1*T^1')"), (zero, "LaurentPoly('0')")):
            with pytest.raises(
                NonUnitDeterminant, match=rf"^not a unit of the Laurent ring: {re.escape(text)}$"
            ):
                x**-2

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


class TestIntegerRing:
    def test_coerce(self):
        assert INTEGER.coerce(3) == 3 and type(INTEGER.coerce(3)) is int
        assert INTEGER.coerce(Fraction(-4)) == -4
        assert INTEGER.coerce(LaurentPoly.const(5)) == 5
        with pytest.raises(ValueError):
            INTEGER.coerce(Fraction(1, 2))
        with pytest.raises(ValueError):
            INTEGER.coerce(T)

    def test_units_and_division(self):
        assert INTEGER.is_unit(-1) and not INTEGER.is_unit(2)
        assert INTEGER.unit_inverse(-1) == -1
        with pytest.raises(NonUnitDeterminant):
            INTEGER.unit_inverse(2)
        assert INTEGER.exact_div(-12, 4) == -3
        with pytest.raises(ValueError, match="inexact"):
            INTEGER.exact_div(7, 2)
        assert INTEGER.div_int(9, 3) == 3

    def test_sqrt_and_text(self):
        assert INTEGER.sqrt(49) == 7
        for x in (-4, 8):
            with pytest.raises(NoExactRoot):
                INTEGER.sqrt(x)
        assert INTEGER.from_text(INTEGER.to_text(-17)) == -17
        with pytest.raises(ParseError):
            INTEGER.from_text("1/2")

    @given(laurent_strategy)
    def test_split_monomial(self, x):
        parts = LAURENT.split_monomial(x)
        if len(x.coeffs) != 1:
            assert parts is None
        else:
            c, e = parts
            assert LAURENT.monomial(c, e) == x
        assert RATIONAL.split_monomial(Fraction(3, 4)) == (Fraction(3, 4), 0)
        with pytest.raises(ValueError):
            RATIONAL.monomial(Fraction(1), 1)
