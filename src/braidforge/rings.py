"""Exact scalar arithmetic: arbitrary-precision rationals and Laurent polynomials.

Two coefficient rings are used throughout the package: the rationals, backed
by ``fractions.Fraction``, and single-variable Laurent polynomials over the
rationals.  Both are immutable, support exact equality, and never round.  A
third descriptor, INTEGER (Python ``int``, exact ``//``), carries the
fraction-free forms: a matrix or tensor whose nonzero entries are all c*T^e
for one shared e is a unit of its ring times an integer one (see
``matrix.integer_form``), and its products, inverses and traces then run on
plain ints.

A Laurent polynomial is a finite map exponent -> Fraction with no stored zero
coefficients; the zero polynomial is the empty map.  The canonical text form
sorts terms by ascending exponent and joins them with " + ", e.g.
``-1/2*T^-1 + 3*T^2``; a constant term is printed bare ("3"), and the zero
polynomial is "0".  The ring descriptors RATIONAL and LAURENT decide all
ring-dependent arithmetic (coercion, unit inverses, exact division, square
roots, and splitting a monomial c*T^e into c and e or building it back,
the zero element when c is 0), so code above this module needs no per-ring
branches.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import NoExactRoot, NonUnitDeterminant, ParseError

RatLike = Union[int, Fraction]


def _as_fraction(x: RatLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational scalar: {x!r}")


class LaurentPoly:
    """A Laurent polynomial in one variable T with Fraction coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, RatLike] | Iterable[tuple[int, RatLike]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, Fraction] = {}
        for e, c in items:
            c = _as_fraction(c)
            if c:
                acc[e] = acc.get(e, Fraction(0)) + c
                if not acc[e]:
                    del acc[e]
        self._coeffs = acc

    @classmethod
    def _of(cls, coeffs: dict[int, Fraction]) -> "LaurentPoly":
        """A polynomial over a map already free of zero coefficients."""
        out = object.__new__(cls)
        out._coeffs = coeffs
        return out

    @classmethod
    def const(cls, c: RatLike) -> "LaurentPoly":
        return cls({0: _as_fraction(c)})

    @classmethod
    def monomial(cls, c: RatLike, e: int) -> "LaurentPoly":
        return cls({e: _as_fraction(c)})

    @classmethod
    def var(cls, e: int = 1) -> "LaurentPoly":
        """The monomial T^e."""
        return cls({e: Fraction(1)})

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def coeff(self, e: int) -> Fraction:
        return self._coeffs.get(e, Fraction(0))

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_constant(self) -> bool:
        return not self._coeffs or set(self._coeffs) == {0}

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return self._coeffs.get(0, Fraction(0))

    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _coerced(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        acc = dict(self._coeffs)
        for e, c in o._coeffs.items():
            # A new exponent takes the stored, already nonzero coefficient.
            if e not in acc:
                acc[e] = c
            elif s := acc[e] + c:
                acc[e] = s
            else:
                del acc[e]
        return LaurentPoly._of(acc)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in o._coeffs.items():
                e, c = e1 + e2, c1 * c2
                if e not in acc:
                    acc[e] = c
                elif s := acc[e] + c:
                    acc[e] = s
                else:
                    del acc[e]
        return LaurentPoly._of(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.unit_inverse() ** (-n)
        result = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._coeffs == o._coeffs

    def __hash__(self):
        # A constant equals its Fraction value, so it must hash like it.
        if self.is_constant():
            return hash(self.coeff(0))
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"LaurentPoly({self.text()!r})"

    # -- division -----------------------------------------------------------

    def is_unit(self) -> bool:
        """Units of the Laurent ring are the nonzero monomials c*T^e."""
        return len(self._coeffs) == 1

    def unit_inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise NonUnitDeterminant(f"not a unit of the Laurent ring: {self}")
        ((e, c),) = self._coeffs.items()
        return LaurentPoly._of({-e: 1 / c})

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other; raises if the division is not exact.

        Used by fraction-free elimination, where exactness is guaranteed.
        """
        o = self._coerced(other)
        if o is None or o.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly()
        if o.is_unit():
            return self * o.unit_inverse()
        # Shift both operands into ordinary polynomials and long-divide.
        sa, sb = self.min_exp(), o.min_exp()
        da, db = self.max_exp() - sa, o.max_exp() - sb
        if da < db:
            raise ValueError(f"inexact Laurent division: {self} / {o}")
        a = [self.coeff(sa + i) for i in range(da + 1)]
        b = [o.coeff(sb + i) for i in range(db + 1)]
        q = [Fraction(0)] * (da - db + 1)
        for i in range(da - db, -1, -1):
            coef = a[i + db] / b[db]
            q[i] = coef
            if coef:
                for j in range(db + 1):
                    a[i + j] -= coef * b[j]
        if any(a):
            raise ValueError(f"inexact Laurent division: {self} / {o}")
        return LaurentPoly({sa - sb + i: c for i, c in enumerate(q) if c})

    def sqrt_monomial(self) -> "LaurentPoly":
        """The principal exact square root of a unit monomial c*T^(2k), c > 0."""
        if not self.is_unit():
            raise NoExactRoot(f"no exact square root in the Laurent ring: {self}")
        ((e, c),) = self._coeffs.items()
        if e % 2 != 0:
            raise NoExactRoot(f"odd exponent, no exact square root: {self}")
        return LaurentPoly._of({e // 2: fraction_sqrt(c)})

    # -- text ---------------------------------------------------------------

    def text(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs):
            c = self._coeffs[e]
            parts.append(str(c) if e == 0 else f"{c}*T^{e}")
        return " + ".join(parts)


def fraction_sqrt(c: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or NoExactRoot."""
    c = _as_fraction(c)
    if c < 0:
        raise NoExactRoot(f"negative rational has no rational square root: {c}")
    pn, pd = math.isqrt(c.numerator), math.isqrt(c.denominator)
    if pn * pn != c.numerator or pd * pd != c.denominator:
        raise NoExactRoot(f"rational is not a perfect square: {c}")
    return Fraction(pn, pd)


_TERM_RE = re.compile(r"^(?P<c>[+-]?\d+(?:/\d+)?)(?:\*T\^(?P<e>[+-]?\d+))?$")


def parse_laurent(text: str) -> LaurentPoly:
    """Parse the canonical text form back into a LaurentPoly."""
    text = text.strip()
    if not text:
        raise ParseError("empty Laurent polynomial text")
    if text == "0":
        return LaurentPoly()
    coeffs: dict[int, Fraction] = {}
    for term in text.split(" + "):
        m = _TERM_RE.match(term.strip())
        if m is None:
            raise ParseError(f"bad Laurent term: {term!r}")
        e = int(m.group("e")) if m.group("e") is not None else 0
        if e in coeffs:
            raise ParseError(f"duplicate exponent {e} in {text!r}")
        coeffs[e] = Fraction(m.group("c"))
    return LaurentPoly(coeffs)


# -- ring descriptors -------------------------------------------------------


class RationalRing:
    """The field of rationals, as a pluggable matrix coefficient ring."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, LaurentPoly):
            return x.constant_value()
        return _as_fraction(x)

    def is_zero(self, x: Fraction) -> bool:
        return not x

    def is_unit(self, x: Fraction) -> bool:
        return bool(x)

    def unit_inverse(self, x: Fraction) -> Fraction:
        if not x:
            raise NonUnitDeterminant("zero is not invertible")
        return 1 / x

    def exact_div(self, a: Fraction, b: Fraction) -> Fraction:
        if not b:
            raise ZeroDivisionError("rational division by zero")
        return a / b

    def sqrt(self, x: Fraction) -> Fraction:
        return fraction_sqrt(x)

    def div_int(self, a: Fraction, n: int) -> Fraction:
        return a / n

    def split_monomial(self, x: Fraction) -> tuple[Fraction, int]:
        """(c, e) with x = c * T^e; every rational is c * T^0."""
        return x, 0

    def monomial(self, c: Fraction, e: int) -> Fraction:
        if e and c:
            raise ValueError(f"T^{e} is not a rational")
        return c

    def to_text(self, x: Fraction) -> str:
        return str(x)

    def from_text(self, s: str) -> Fraction:
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational: {s!r}") from exc


class LaurentRing:
    """Laurent polynomials over the rationals, as a matrix coefficient ring."""

    name = "laurent"
    zero = LaurentPoly()
    one = LaurentPoly.const(1)

    def coerce(self, x) -> LaurentPoly:
        if isinstance(x, LaurentPoly):
            return x
        return LaurentPoly.const(_as_fraction(x))

    def is_zero(self, x: LaurentPoly) -> bool:
        return x.is_zero()

    def is_unit(self, x: LaurentPoly) -> bool:
        return x.is_unit()

    def unit_inverse(self, x: LaurentPoly) -> LaurentPoly:
        return x.unit_inverse()

    def exact_div(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        return a.exact_div(b)

    def sqrt(self, x: LaurentPoly) -> LaurentPoly:
        return x.sqrt_monomial()

    def div_int(self, a: LaurentPoly, n: int) -> LaurentPoly:
        return a * Fraction(1, n)

    def split_monomial(self, x: LaurentPoly) -> tuple[Fraction, int] | None:
        """(c, e) with x = c * T^e, or None unless x is a nonzero monomial."""
        if not x.is_unit():
            return None
        ((e, c),) = x._coeffs.items()
        return c, e

    def monomial(self, c: Fraction, e: int) -> LaurentPoly:
        return LaurentPoly._of({e: c}) if c else self.zero

    def to_text(self, x: LaurentPoly) -> str:
        return x.text()

    def from_text(self, s: str) -> LaurentPoly:
        return parse_laurent(s)


class IntegerRing:
    """The integers as Python ints: the ring of fraction-free forms.

    Only exact results exist here: division and square roots raise when
    the quotient or root is not an integer, and the units are 1 and -1.
    """

    name = "integer"
    zero = 0
    one = 1

    def coerce(self, x) -> int:
        if isinstance(x, LaurentPoly):
            x = x.constant_value()
        if isinstance(x, int):
            return int(x)
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        raise ValueError(f"not an integer: {x!r}")

    def is_zero(self, x: int) -> bool:
        return not x

    def is_unit(self, x: int) -> bool:
        return x in (1, -1)

    def unit_inverse(self, x: int) -> int:
        if x not in (1, -1):
            raise NonUnitDeterminant(f"{x} is not a unit of the integers")
        return x

    def exact_div(self, a: int, b: int) -> int:
        q, r = divmod(a, b)
        if r:
            raise ValueError(f"inexact integer division: {a} / {b}")
        return q

    def sqrt(self, x: int) -> int:
        r = math.isqrt(x) if x >= 0 else -1
        if r * r != x:
            raise NoExactRoot(f"no integer square root: {x}")
        return r

    def div_int(self, a: int, n: int) -> int:
        return self.exact_div(a, n)

    def split_monomial(self, x: int) -> tuple[Fraction, int]:
        return Fraction(x), 0

    def monomial(self, c: Fraction, e: int) -> int:
        if e and c:
            raise ValueError(f"T^{e} is not an integer")
        return self.coerce(c)

    def to_text(self, x: int) -> str:
        return str(x)

    def from_text(self, s: str) -> int:
        try:
            return int(s.strip())
        except ValueError as exc:
            raise ParseError(f"bad integer: {s!r}") from exc


RATIONAL = RationalRing()
LAURENT = LaurentRing()
INTEGER = IntegerRing()

T = LaurentPoly.var()
