"""Exact dense linear algebra over the rational and Laurent rings."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from braidforge.errors import DimensionMismatch, NonUnitDeterminant
from braidforge.matrix import (
    RingMatrix,
    char_poly,
    integer_form,
    integer_form_inverse,
    kron,
    mat_det,
    mat_inverse,
    random_invertible_matrix,
    random_rational_matrix,
)
from braidforge.rings import INTEGER, LAURENT, RATIONAL, LaurentPoly

q = LaurentPoly.var()


def burau_block() -> RingMatrix:
    return RingMatrix(LAURENT, [[LaurentPoly(), q], [1, 1 - q]])


class TestMatMul:
    def test_identity(self):
        rng = random.Random(0)
        m = random_rational_matrix(3, rng)
        assert RingMatrix.identity(RATIONAL, 3) * m == m

    def test_quadratic_relation(self):
        # M^2 = (1 - q) M + q I for the standard 2 x 2 Laurent block.
        m = burau_block()
        ident = RingMatrix.identity(LAURENT, 2)
        assert m * m == m.scale(1 - q) + ident.scale(q)

    def test_trace_symmetry(self):
        rng = random.Random(1)
        for _ in range(5):
            a = random_rational_matrix(3, rng)
            b = random_rational_matrix(3, rng)
            assert (a * b).trace() == (b * a).trace()

    def test_dimension_mismatch(self):
        a = RingMatrix.zeros(RATIONAL, 2, 3)
        with pytest.raises(DimensionMismatch):
            a * a


class TestPower:
    @pytest.mark.parametrize(
        "m",
        [RingMatrix(RATIONAL, [[2, 1], [1, 1]]), burau_block()],
        ids=["rational", "laurent"],
    )
    def test_matches_repeated_product(self, m):
        ident = RingMatrix.identity(m.ring, 2)
        assert m**0 == ident
        inv = mat_inverse(m)
        for k in range(-3, 10):
            expected = ident
            for _ in range(abs(k)):
                expected = expected * (m if k > 0 else inv)
            assert m**k == expected

    def test_product_count(self, monkeypatch):
        products = []
        mul = RingMatrix.__mul__

        def counting_mul(self, other):
            products.append(1)
            return mul(self, other)

        monkeypatch.setattr(RingMatrix, "__mul__", counting_mul)
        m = burau_block()
        for k, count in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)):
            products.clear()
            m**k
            assert len(products) == count, k


class TestDeterminant:
    def test_identity(self):
        assert mat_det(RingMatrix.identity(RATIONAL, 4)) == Fraction(1)

    def test_laurent_block(self):
        assert mat_det(burau_block()) == -q

    def test_multiplicativity(self):
        rng = random.Random(2)
        for _ in range(5):
            a = random_rational_matrix(3, rng)
            b = random_rational_matrix(3, rng)
            assert mat_det(a * b) == mat_det(a) * mat_det(b)

    def test_laurent_multiplicativity(self):
        rng = random.Random(3)
        mats = []
        for _ in range(2):
            base = random_rational_matrix(3, rng).to_ring(LAURENT)
            shift = RingMatrix.identity(LAURENT, 3).scale(q)
            mats.append(base + shift)
        a, b = mats
        assert mat_det(a * b) == mat_det(a) * mat_det(b)

    def test_singular(self):
        m = RingMatrix(RATIONAL, [[1, 2], [2, 4]])
        assert mat_det(m) == 0


class TestInverse:
    def test_identity(self):
        ident = RingMatrix.identity(RATIONAL, 3)
        assert mat_inverse(ident) == ident

    def test_laurent_block_inverse(self):
        m = burau_block()
        expected = RingMatrix(
            LAURENT,
            [
                [(q - 1) * q**-1, LaurentPoly.const(1)],
                [q**-1, LaurentPoly()],
            ],
        )
        assert mat_inverse(m) == expected
        assert m * expected == RingMatrix.identity(LAURENT, 2)

    def test_monomial_diagonal(self):
        m = RingMatrix(LAURENT, [[q, 0], [0, q**-1]])
        assert mat_inverse(m) == RingMatrix(LAURENT, [[q**-1, 0], [0, q]])

    def test_non_unit_determinant(self):
        m = RingMatrix(LAURENT, [[1 + q, 0], [0, 1]])
        with pytest.raises(NonUnitDeterminant):
            mat_inverse(m)

    def test_two_sided_inverse(self):
        rng = random.Random(4)
        for _ in range(5):
            m = random_invertible_matrix(3, rng)
            inv = mat_inverse(m)
            ident = RingMatrix.identity(RATIONAL, 3)
            assert m * inv == ident and inv * m == ident

    def test_negative_power(self):
        rng = random.Random(5)
        m = random_invertible_matrix(2, rng)
        assert m**-2 == mat_inverse(m * m)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0]],
            [[1, 2], [2, 4]],
            [[0, 1], [0, 2]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        ],
    )
    def test_singular_rational(self, rows):
        with pytest.raises(NonUnitDeterminant):
            mat_inverse(RingMatrix(RATIONAL, rows))

    def test_zero_leading_pivot(self):
        m = RingMatrix(RATIONAL, [[0, 1, 0], [0, 0, 2], [3, 0, 0]])
        assert mat_inverse(m) == RingMatrix(
            RATIONAL, [[0, 0, Fraction(1, 3)], [1, 0, 0], [0, Fraction(1, 2), 0]]
        )

    def test_empty_and_one_by_one(self):
        empty = RingMatrix(LAURENT, [])
        assert mat_inverse(empty) == empty
        assert mat_inverse(RingMatrix(LAURENT, [[-2 * q**3]])) == RingMatrix(
            LAURENT, [[Fraction(-1, 2) * q**-3]]
        )


def adjugate_inverse(a: RingMatrix) -> RingMatrix:
    """The reference inverse: cofactors from determinants of minors over det."""
    n = a.rows
    inv_det = a.ring.unit_inverse(mat_det(a))

    def minor(i, j):
        rows = [r for k, r in enumerate(a.entries) if k != i]
        return RingMatrix(a.ring, [r[:j] + r[j + 1:] for r in rows])

    # Entry (i, j) of the adjugate is the (j, i) cofactor.
    return RingMatrix(
        a.ring,
        [
            [(-1) ** (i + j) * mat_det(minor(j, i)) * inv_det for j in range(n)]
            for i in range(n)
        ],
    )


@st.composite
def invertible_rational(draw, max_n=7):
    """Small-entry rational matrices, zeros frequent so that pivots swap."""
    n = draw(st.integers(0, max_n))
    entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    a = RingMatrix(RATIONAL, [[draw(entry) for _ in range(n)] for _ in range(n)])
    assume(mat_det(a) != 0)
    return a


@st.composite
def invertible_laurent(draw, max_n=5):
    """(L * a) * c T^k: a unit lower-triangular Laurent L, an invertible
    rational a and a monomial, so the determinant is a unit by construction."""
    a = draw(invertible_rational(max_n))
    n = a.rows
    poly = st.builds(
        LaurentPoly,
        st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), max_size=2),
    )
    lower = RingMatrix(
        LAURENT,
        [
            [1 if i == j else draw(poly) if j < i else 0 for j in range(n)]
            for i in range(n)
        ],
    )
    mono = LaurentPoly.monomial(
        draw(st.sampled_from([1, -1, 2])), draw(st.integers(-3, 3))
    )
    return (lower * a.to_ring(LAURENT)).scale(mono)


class TestInverseOracle:
    @settings(max_examples=60, deadline=None)
    @given(invertible_rational())
    def test_rational(self, a):
        inv = mat_inverse(a)
        ident = RingMatrix.identity(RATIONAL, a.rows)
        assert a * inv == ident and inv * a == ident
        assert inv == adjugate_inverse(a)

    @settings(max_examples=40, deadline=None)
    @given(invertible_laurent())
    def test_laurent(self, a):
        inv = mat_inverse(a)
        ident = RingMatrix.identity(LAURENT, a.rows)
        assert a * inv == ident and inv * a == ident
        assert inv == adjugate_inverse(a)


@st.composite
def square_matrices(draw, ring, max_n, min_n=0):
    """Any small square matrix, singular ones included."""
    n = draw(st.integers(min_n, max_n))
    if ring is RATIONAL:
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        entry = st.builds(
            LaurentPoly,
            st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), max_size=2),
        )
    return RingMatrix(ring, [[draw(entry) for _ in range(n)] for _ in range(n)])


def assert_in_ring(m: RingMatrix):
    """m equals its public construction, and every entry has the ring's type."""
    assert m == RingMatrix(m.ring, m.entries)
    kind = Fraction if m.ring is RATIONAL else LaurentPoly
    assert all(type(row) is tuple and len(row) == m.cols for row in m.entries)
    assert all(type(x) is kind for row in m.entries for x in row)


class TestTrustedResults:
    """Operations build their results without re-coercing the entries."""

    @pytest.mark.parametrize(
        "ring, invertible",
        [(RATIONAL, invertible_rational(4)), (LAURENT, invertible_laurent(3))],
        ids=["rational", "laurent"],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_results_are_in_ring(self, ring, invertible, data):
        a = data.draw(square_matrices(ring, 3))
        n = a.rows
        b = data.draw(square_matrices(ring, n, min_n=n))
        c = data.draw(square_matrices(ring, 2))
        inv = data.draw(invertible)
        i, j = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
        results = [
            a * b,
            a + b,
            a - b,
            -a,
            a.scale(2),
            a.scale(b[0, 0] if n else ring.one),
            a.submatrix(i, i, j, j),
            a.submatrix(0, i, n, j),
            mat_inverse(inv),
            kron(a, c),
            RingMatrix.identity(ring, n),
            RingMatrix.zeros(ring, n, i),
            RingMatrix.scalar(ring, n, 3),
        ]
        for m in results:
            assert_in_ring(m)


CHAR_POLY_POINTS = {
    RATIONAL: [Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)],
    LAURENT: [LaurentPoly(), LaurentPoly.const(2), q, 1 - q**-2],
}


class TestCharPoly:
    @pytest.mark.parametrize(
        "ring, max_n", [(RATIONAL, 5), (LAURENT, 4)], ids=["rational", "laurent"]
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_determinant_at_points(self, ring, max_n, data):
        a = data.draw(square_matrices(ring, max_n))
        coeffs = char_poly(a)
        for x in CHAR_POLY_POINTS[ring]:
            value = ring.zero
            for c in reversed(coeffs):
                value = value * x + c
            assert value == mat_det(RingMatrix.scalar(ring, a.rows, x) - a)

    def test_zero_matrix(self):
        coeffs = char_poly(RingMatrix.zeros(RATIONAL, 2))
        assert coeffs == [Fraction(0), Fraction(0), Fraction(1)]

    def test_diagonal(self):
        m = RingMatrix(RATIONAL, [[2, 0], [0, 3]])
        assert char_poly(m) == [Fraction(6), Fraction(-5), Fraction(1)]

    def test_trace_coefficient(self):
        rng = random.Random(6)
        for _ in range(5):
            m = random_rational_matrix(3, rng)
            coeffs = char_poly(m)
            assert coeffs[2] == -m.trace()

    def test_cayley_hamilton(self):
        rng = random.Random(7)
        for n in (2, 3):
            for _ in range(3):
                m = random_rational_matrix(n, rng)
                coeffs = char_poly(m)
                total = RingMatrix.zeros(RATIONAL, n)
                power = RingMatrix.identity(RATIONAL, n)
                for c in coeffs:
                    total = total + power.scale(c)
                    power = power * m
                assert total.is_zero()

    def test_laurent_matrix(self):
        m = RingMatrix(LAURENT, [[q, 0], [0, q**-1]])
        coeffs = char_poly(m)
        assert coeffs == [LaurentPoly.const(1), -(q + q**-1), LaurentPoly.const(1)]


class TestKron:
    def test_identities(self):
        assert kron(
            RingMatrix.identity(RATIONAL, 2), RingMatrix.identity(RATIONAL, 3)
        ) == RingMatrix.identity(RATIONAL, 6)

    def test_mixed_product(self):
        rng = random.Random(8)
        a, b, c, d = (random_rational_matrix(2, rng) for _ in range(4))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)

    def test_trace_product(self):
        rng = random.Random(9)
        a = random_rational_matrix(2, rng)
        b = random_rational_matrix(3, rng)
        assert kron(a, b).trace() == a.trace() * b.trace()

    def test_row_major_convention(self):
        a = RingMatrix(RATIONAL, [[0, 1], [0, 0]])
        b = RingMatrix.identity(RATIONAL, 2)
        k = kron(a, b)
        # Entry ((0,0), (1,0)) = a[0][1] * b[0][0] at row 0, column 2.
        assert k.entries[0][2] == Fraction(1)


def test_jsonable_round_trip():
    m = burau_block()
    assert RingMatrix.from_jsonable(LAURENT, m.to_jsonable()) == m


@st.composite
def monomial_matrices(draw, ring, max_n=4):
    """s * T^e * M for a small integer M (singular ones included), over ring."""
    n = draw(st.integers(0, max_n))
    entries = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
    exp = draw(st.integers(-3, 3)) if ring is LAURENT else 0
    return RingMatrix(ring, entries).scale(ring.monomial(scale, exp))


class TestIntegerForm:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([RATIONAL, LAURENT]), st.data())
    def test_form_reproduces_entries(self, ring, data):
        a = data.draw(monomial_matrices(ring))
        scale, exp, n = integer_form(a)
        assert n.ring is INTEGER
        assert all(type(x) is int for row in n.entries for x in row)
        assert n.to_ring(ring).scale(ring.monomial(scale, exp)) == a
        if not a.is_zero():
            # Primitive: the content went into the scale.
            assert math.gcd(*(x for row in n.entries for x in row)) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([RATIONAL, LAURENT]), st.data())
    def test_inverse_matches_mat_inverse(self, ring, data):
        a = data.draw(monomial_matrices(ring))
        f = integer_form(a)
        if mat_det(a) == 0:
            with pytest.raises(NonUnitDeterminant):
                integer_form_inverse(f, ring)
            return
        scale, exp, n = integer_form_inverse(f, ring)
        assert n.to_ring(ring).scale(ring.monomial(scale, exp)) == mat_inverse(a)

    def test_mixed_degrees_have_no_form(self):
        assert integer_form(burau_block()) is None
        assert integer_form(RingMatrix(LAURENT, [[q, 0], [0, 1]])) is None
        assert integer_form(RingMatrix(LAURENT, [[q, 0], [0, 2 * q]])) is not None

    def test_zero_matrix(self):
        scale, exp, n = integer_form(RingMatrix.zeros(LAURENT, 2))
        assert (scale, exp) == (1, 0) and n.is_zero()

    def test_integer_inverse_is_adjugate(self):
        # Over the integers only det = +-1 is a unit.
        a = RingMatrix(INTEGER, [[2, 1], [1, 1]])
        assert mat_inverse(a) == RingMatrix(INTEGER, [[1, -1], [-1, 2]])
        with pytest.raises(NonUnitDeterminant, match="determinant 3"):
            mat_inverse(RingMatrix(INTEGER, [[2, 1], [1, 2]]))
