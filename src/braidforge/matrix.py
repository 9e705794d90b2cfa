"""Dense exact matrices over a pluggable commutative ring.

RingMatrix stores entries as an immutable tuple of row tuples together with a
ring descriptor (RATIONAL, LAURENT or INTEGER from the rings module).
Determinants use fraction-free Bareiss elimination, inverses one
fraction-free Gauss-Jordan pass (Bareiss 1968), and characteristic
polynomials the Faddeev-LeVerrier recurrence.  Everything is exact; nothing
is ever rounded.

A matrix whose nonzero entries are all c*T^e for one shared e (every
rational matrix, and every pair matrix the presets build) has a
fraction-free form s*T^e*N: a rational scale s, an exponent e and a
primitive integer matrix N (integer_form).  The same Gauss-Jordan pass
inverts N over the integers (integer_form_inverse), so callers can multiply
and invert such matrices on plain ints and apply s*T^e once.  Any other
matrix has no form and stays on its ring's own arithmetic.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, NonUnitDeterminant
from .rings import INTEGER, RATIONAL


class RingMatrix:
    """An immutable dense matrix over an exact ring.

    The constructor coerces outside input into the ring; the matrix's own
    operations build their results with _of, which trusts its entries.
    """

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows: Iterable[Iterable]):
        data = tuple(tuple(ring.coerce(x) for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)
        object.__setattr__(self, "entries", data)

    @classmethod
    def _of(cls, ring, data: tuple[tuple, ...]) -> "RingMatrix":
        """A matrix over a tuple of equal-length row tuples of ring elements."""
        out = object.__new__(cls)
        object.__setattr__(out, "ring", ring)
        object.__setattr__(out, "rows", len(data))
        object.__setattr__(out, "cols", len(data[0]) if data else 0)
        object.__setattr__(out, "entries", data)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, ring, n: int) -> "RingMatrix":
        return cls.scalar(ring, n, ring.one)

    @classmethod
    def zeros(cls, ring, rows: int, cols: int | None = None) -> "RingMatrix":
        cols = rows if cols is None else cols
        return cls._of(ring, ((ring.zero,) * cols,) * rows)

    @classmethod
    def scalar(cls, ring, n: int, c) -> "RingMatrix":
        c = ring.coerce(c)
        zero = ring.zero
        out = tuple(tuple(c if i == j else zero for j in range(n)) for i in range(n))
        return cls._of(ring, out)

    def _same_ring(self, other: "RingMatrix"):
        if self.ring is not other.ring:
            raise DimensionMismatch(
                f"ring mismatch: {self.ring.name} vs {other.ring.name}"
            )

    # -- access -------------------------------------------------------------

    def __getitem__(self, ij: tuple[int, int]):
        i, j = ij
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(x) for r in self.entries for x in r)

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (
            self.ring is other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring.name, self.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(self.ring.to_text(x) for x in row) for row in self.entries
        )
        return f"RingMatrix({self.ring.name}, [{body}])"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in addition")
        rows = zip(self.entries, other.entries)
        return RingMatrix._of(self.ring, tuple(tuple(map(add, r1, r2)) for r1, r2 in rows))

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        self._same_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in subtraction")
        rows = zip(self.entries, other.entries)
        return RingMatrix._of(self.ring, tuple(tuple(map(sub, r1, r2)) for r1, r2 in rows))

    def __neg__(self) -> "RingMatrix":
        return RingMatrix._of(self.ring, tuple(tuple(-x for x in r) for r in self.entries))

    def scale(self, c) -> "RingMatrix":
        c = self.ring.coerce(c)
        out = tuple(tuple(c * x for x in r) for r in self.entries)
        return RingMatrix._of(self.ring, out)

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        self._same_ring(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        zero = self.ring.zero
        cols = tuple(zip(*other.entries)) if other.entries else ()
        out = tuple(
            tuple(sum(map(mul, r, c), zero) for c in cols)
            for r in self.entries
        )
        return RingMatrix._of(self.ring, out)

    def __pow__(self, n: int) -> "RingMatrix":
        if not self.is_square():
            raise DimensionMismatch("power of a non-square matrix")
        if n < 0:
            return mat_inverse(self) ** (-n)
        if n == 0:
            return RingMatrix.identity(self.ring, self.rows)
        # Binary powering from the lowest set bit, squaring only below the top bit.
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def trace(self):
        if not self.is_square():
            raise DimensionMismatch("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), self.ring.zero)

    def submatrix(self, r0: int, c0: int, r1: int, c1: int) -> "RingMatrix":
        return RingMatrix._of(self.ring, tuple(row[c0:c1] for row in self.entries[r0:r1]))

    def to_ring(self, ring) -> "RingMatrix":
        if ring is self.ring:
            return self
        return RingMatrix(ring, self.entries)

    # -- serialization ------------------------------------------------------

    def to_jsonable(self) -> list[list[str]]:
        return [[self.ring.to_text(x) for x in r] for r in self.entries]

    @classmethod
    def from_jsonable(cls, ring, rows: Sequence[Sequence[str]]) -> "RingMatrix":
        return cls(ring, [[ring.from_text(x) for x in r] for r in rows])


def mat_det(a: RingMatrix):
    """Exact determinant by fraction-free Bareiss elimination."""
    if not a.is_square():
        raise DimensionMismatch("determinant of a non-square matrix")
    n = a.rows
    ring = a.ring
    if n == 0:
        return ring.one
    m = [list(r) for r in a.entries]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if ring.is_zero(m[k][k]):
            pivot = next(
                (i for i in range(k + 1, n) if not ring.is_zero(m[i][k])), None
            )
            if pivot is None:
                return ring.zero
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = ring.exact_div(
                    m[k][k] * m[i][j] - m[i][k] * m[k][j], prev
                )
            m[i][k] = ring.zero
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def _fraction_free_inverse(a: RingMatrix):
    """(d, sign, rows) with rows = d * a^-1 as row tuples and
    det(a) = sign * d, or (zero, 1, None) when det(a) = 0.

    Bareiss's one-step elimination turns [A | I] into [d*I | d*A^-1], where
    d = +-det(A) (the sign of the row swaps), and every division by the
    previous pivot is exact.  Over the integers d*A^-1 = +-adj(A) is an
    integer matrix, so no fraction ever appears.
    """
    ring = a.ring
    n = a.rows
    one, zero = ring.one, ring.zero
    m = [
        list(r) + [one if i == j else zero for j in range(n)]
        for i, r in enumerate(a.entries)
    ]
    sign = 1
    prev = one
    for k in range(n):
        if ring.is_zero(m[k][k]):
            pivot = next(
                (i for i in range(k + 1, n) if not ring.is_zero(m[i][k])), None
            )
            if pivot is None:
                return zero, 1, None
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pivot_row = m[k]
        p = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = m[i]
            f = row[k]
            # Columns 0..k are not read again: the left block ends as d*I,
            # and only the right block is returned.
            for j in range(k + 1, 2 * n):
                row[j] = ring.exact_div(p * row[j] - f * pivot_row[j], prev)
        prev = p
    return prev, sign, tuple(tuple(r[n:]) for r in m)


def mat_inverse(a: RingMatrix) -> RingMatrix:
    """Inverse by one fraction-free Gauss-Jordan pass; det must be a unit.

    The pass (_fraction_free_inverse) gives d = +-det(a) and d * a^-1; one
    unit inverse of d then gives a^-1.
    """
    if not a.is_square():
        raise DimensionMismatch("inverse of a non-square matrix")
    ring = a.ring
    d, sign, rows = _fraction_free_inverse(a)
    if not ring.is_unit(d):
        det = d if sign > 0 else -d
        raise NonUnitDeterminant(
            f"determinant {ring.to_text(det)} is not a unit of the {ring.name} ring"
        )
    inv_d = ring.unit_inverse(d)
    return RingMatrix._of(ring, tuple(tuple(x * inv_d for x in r) for r in rows))


# -- fraction-free forms ------------------------------------------------------


class IntegerMatrixForm(NamedTuple):
    """A matrix as scale * T^exp * matrix, with matrix over INTEGER.

    integer_form and integer_form_inverse give a primitive integer matrix
    (its entries have gcd 1) unless it is zero; the zero matrix is
    1 * T^0 * 0.  A product of forms multiplies the scales, adds the
    exponents and multiplies the integer matrices, which then need not be
    primitive; primitive() makes them so again.  Only form * form is that
    product: form * 2 raises, while 2 * form still repeats the tuple.
    """

    scale: Fraction
    exp: int
    matrix: RingMatrix

    def __mul__(self, other: "IntegerMatrixForm") -> "IntegerMatrixForm":
        return IntegerMatrixForm(
            self.scale * other.scale, self.exp + other.exp, self.matrix * other.matrix
        )

    def primitive(self) -> "IntegerMatrixForm":
        return _primitive(self.scale, self.exp, self.matrix.entries)

    def to_matrix(self, ring) -> RingMatrix:
        """The matrix scale * T^exp * matrix over ring."""
        scale, exp = self.scale, self.exp
        rows = self.matrix.entries
        return RingMatrix._of(
            ring, tuple(tuple(ring.monomial(scale * x, exp) for x in row) for row in rows)
        )


def integer_form(a: RingMatrix) -> IntegerMatrixForm | None:
    """The fraction-free form of a, or None when a has none.

    The form exists exactly when every nonzero entry of a is c * T^e for
    one shared e, so every rational matrix has one.  It is checked against
    a's entries before it is returned.
    """
    ring = a.ring
    coeffs, exps = [], set()
    for row in a.entries:
        out = []
        for x in row:
            if ring.is_zero(x):
                out.append(Fraction(0))
                continue
            part = ring.split_monomial(x)
            if part is None:
                return None
            out.append(part[0])
            exps.add(part[1])
        coeffs.append(out)
    if len(exps) > 1:
        return None
    den = math.lcm(*(c.denominator for row in coeffs for c in row))
    rows = tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in coeffs)
    form = _primitive(Fraction(1, den), exps.pop() if exps else 0, rows)
    unit = ring.monomial(form.scale, form.exp)
    pairs = zip(a.entries, form.matrix.entries)
    if any(unit * y != x for rx, ry in pairs for x, y in zip(rx, ry)):
        raise ArithmeticError(f"integer form does not reproduce {a!r}")
    return form


def integer_form_inverse(f: IntegerMatrixForm, ring) -> IntegerMatrixForm:
    """The form of the inverse of the matrix over ring with form f.

    One fraction-free pass gives d = +-det(N) and d * N^-1 = +-adj(N), so
    the inverse is (scale * d)^-1 * T^-exp * (d * N^-1), with no rational
    entries.
    Raises NonUnitDeterminant when d = 0, which is exactly when the matrix
    is singular in ring.
    """
    d, _, rows = _fraction_free_inverse(f.matrix)
    if rows is None:
        raise NonUnitDeterminant(f"determinant 0 is not a unit of the {ring.name} ring")
    return _primitive(1 / (f.scale * d), -f.exp, rows)


def _primitive(scale: Fraction, exp: int, rows) -> IntegerMatrixForm:
    """The form of scale * T^exp * rows, for int rows: the rows' content c
    moves into the scale."""
    c = math.gcd(*(x for row in rows for x in row))
    if not c:
        return IntegerMatrixForm(Fraction(1), 0, RingMatrix._of(INTEGER, rows))
    if c != 1:
        scale = scale * c
        rows = tuple(tuple(x // c for x in row) for row in rows)
    return IntegerMatrixForm(scale, exp, RingMatrix._of(INTEGER, rows))


def char_poly(a: RingMatrix) -> list:
    """Coefficients of det(X*I - a), ascending from X^0 to X^m, leading 1.

    Uses the Faddeev-LeVerrier recurrence, which needs division by integers
    only; valid over any ring containing the rationals.
    """
    if not a.is_square():
        raise DimensionMismatch("characteristic polynomial of a non-square matrix")
    n = a.rows
    ring = a.ring
    coeffs = [ring.zero] * (n + 1)
    coeffs[n] = ring.one
    m = RingMatrix.zeros(ring, n)
    ident = RingMatrix.identity(ring, n)
    c = ring.one
    for k in range(1, n + 1):
        m = a * (m + ident.scale(c))
        c = ring.div_int(-m.trace(), k)
        coeffs[n - k] = c
    return coeffs


def kron(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Kronecker product with row-major index convention (i1*dim2 + i2)."""
    a._same_ring(b)
    out = tuple(tuple(x * y for x in ra for y in rb) for ra in a.entries for rb in b.entries)
    return RingMatrix._of(a.ring, out)


def random_rational_matrix(
    n: int, rng: random.Random, lo: int = -4, hi: int = 4
) -> RingMatrix:
    """A random n x n matrix with small integer entries, over the rationals."""
    return RingMatrix(
        RATIONAL, [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
    )


def random_invertible_matrix(
    n: int, rng: random.Random, lo: int = -4, hi: int = 4
) -> RingMatrix:
    """A random invertible n x n rational matrix (rejection sampling)."""
    while True:
        m = random_rational_matrix(n, rng, lo, hi)
        if mat_det(m):
            return m

