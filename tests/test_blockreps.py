"""Relation catalogs, block representation series, and operator pairs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge.blockreps import (
    RELATION_SETS,
    BlockRep,
    PairOperators,
    block_operator,
    burau_quadratic_check,
    burau_rep,
    check_relation_set,
    pair_to_block_rep,
    pair_to_triangle_rep,
    relation_set_slots,
    rep_from_word,
    series_constructor,
    square_zero_assignment,
    square_zero_rep,
    type_I_pair,
    type_II_pair,
)
from braidforge.braids import BraidWord, parse_braid_word, random_markov_perturbation
from braidforge.errors import (
    DimensionMismatch,
    InvalidPolynomial,
    InvalidSpec,
    MissingSlot,
    PeriodicSpec,
    SingularInput,
)
from braidforge.matrix import (
    RingMatrix,
    char_poly,
    mat_det,
    random_invertible_matrix,
    random_rational_matrix,
)
from braidforge.rings import LAURENT, RATIONAL, LaurentPoly

q = LaurentPoly.var()


def jordan_block(size: int, eigenvalue: Fraction) -> RingMatrix:
    rows = [
        [
            eigenvalue if i == j else (Fraction(1) if j == i + 1 else Fraction(0))
            for j in range(size)
        ]
        for i in range(size)
    ]
    return RingMatrix(RATIONAL, rows)


def rep_assignment(rep: BlockRep) -> dict:
    return {"A": rep.A, "B": rep.B, "C": rep.C, "D": rep.D}


def dense_generator(
    rep: BlockRep, strands: int, index: int, period2=None, inverse=False
) -> RingMatrix:
    """The nk x nk matrix of t_index (or its inverse), identity off the block."""
    active = period2 if period2 is not None and index % 2 == 0 else rep
    op = active.inverse_operator() if inverse else active.operator()
    k, ring = rep.k, rep.ring
    out = [
        [ring.one if i == j else ring.zero for j in range(strands * k)]
        for i in range(strands * k)
    ]
    base = (index - 1) * k
    for i in range(2 * k):
        for j in range(2 * k):
            out[base + i][base + j] = op.entries[i][j]
    return RingMatrix(ring, out)


def dense_rep_from_word(rep: BlockRep, w: BraidWord, period2=None) -> RingMatrix:
    """The oracle: one dense product per letter, starting at the identity."""
    result = RingMatrix.identity(rep.ring, w.strands * rep.k)
    for letter in w.letters:
        result = result * dense_generator(
            rep, w.strands, abs(letter), period2, inverse=letter < 0
        )
    return result


def period2_pair() -> tuple[BlockRep, BlockRep]:
    b = RingMatrix(RATIONAL, [[Fraction(2)]])
    ident = RingMatrix.identity(RATIONAL, 1)
    zero = RingMatrix.zeros(RATIONAL, 1)
    rep1 = BlockRep.from_blocks(zero, b, ident, zero)
    rep2 = BlockRep.from_blocks(zero, ident, b, zero)
    return rep1, rep2


def oracle_reps() -> list:
    """(rep, period2) pairs covering every construction of a BlockRep."""
    rng = random.Random(11)
    cases = [
        pytest.param(series_constructor(s, random_invertible_matrix(2, rng)), None, id=s)
        for s in ("I", "II", "III")
    ]
    cases += [
        pytest.param(series_constructor("VI", (Fraction(2), Fraction(-1))), None, id="VI"),
        pytest.param(
            square_zero_rep(*(random_rational_matrix(2, rng) for _ in range(3))),
            None,
            id="square-zero",
        ),
        pytest.param(pair_to_block_rep(type_I_pair([(1, 1)])), None, id="type-I-pair"),
        pytest.param(
            pair_to_block_rep(type_II_pair([(1, 1)], [Fraction(1)])),
            None,
            id="type-II-pair",
        ),
        pytest.param(*period2_pair(), id="period-2"),
        pytest.param(burau_rep(), None, id="burau-laurent"),
    ]
    return cases


@st.composite
def braid_words(draw, max_strands: int = 4, max_len: int = 6) -> BraidWord:
    strands = draw(st.integers(1, max_strands))
    if strands == 1:
        return BraidWord(1)
    letter = st.tuples(st.integers(1, strands - 1), st.booleans()).map(
        lambda p: -p[0] if p[1] else p[0]
    )
    return BraidWord(strands, tuple(draw(st.lists(letter, max_size=max_len))))


def relation_oracle(assignment: dict, set_id: str) -> list[str]:
    """check_relation_set with every monomial multiplied out from the identity."""
    some = next(iter(assignment.values()))
    ident = RingMatrix.identity(some.ring, some.rows)
    violated = []
    for label, monomials in RELATION_SETS[set_id]:
        total = RingMatrix.zeros(some.ring, some.rows)
        for coeff, mono in monomials:
            term = ident
            for s in mono:
                term = term * assignment[s]
            total = total + term.scale(coeff)
        if not total.is_zero():
            violated.append(label)
    return violated


class TestCheckRelationSet:
    @pytest.mark.parametrize("set_id", sorted(RELATION_SETS))
    def test_matches_identity_started_oracle(self, set_id):
        rng = random.Random(len(set_id))
        slots = relation_set_slots(set_id)
        ident = RingMatrix.identity(RATIONAL, 2)
        zero = RingMatrix.zeros(RATIONAL, 2)
        assignments = [
            {s: random_rational_matrix(2, rng, -1, 1) for s in slots},
            {s: ident for s in slots},
            {s: zero for s in slots},
        ]
        for assignment in assignments:
            violated = check_relation_set(assignment, set_id)
            assert violated == relation_oracle(assignment, set_id)

    @pytest.mark.parametrize("rep, period2", oracle_reps())
    def test_reps_match_oracle(self, rep, period2):
        assignment = rep_assignment(rep)
        assert check_relation_set(assignment, "BRAID_ALGEBRA") == []
        assert relation_oracle(assignment, "BRAID_ALGEBRA") == []
        for set_id in ("SIMPLIFIED", "AD_ZERO"):
            violated = check_relation_set(assignment, set_id)
            assert violated == relation_oracle(assignment, set_id)

    def test_series_ii_passes(self):
        rep = series_constructor("II", RingMatrix(LAURENT, [[q]]))
        assert check_relation_set(rep_assignment(rep), "BRAID_ALGEBRA") == []

    def test_identity_assignment_fails(self):
        ident = RingMatrix.identity(RATIONAL, 1)
        violated = check_relation_set(
            {"A": ident, "B": ident, "C": ident, "D": ident}, "BRAID_ALGEBRA"
        )
        assert "2.2(i)" in violated

    def test_triangle_obvious_solutions(self):
        rng = random.Random(0)
        x = random_invertible_matrix(2, rng)
        zero = RingMatrix.zeros(RATIONAL, 2)
        ident = RingMatrix.identity(RATIONAL, 2)
        assert check_relation_set({"x": x, "y": zero}, "TRIANGLE") == []
        assert check_relation_set({"x": x, "y": ident - x}, "TRIANGLE") == []

    def test_missing_slot(self):
        with pytest.raises(MissingSlot):
            check_relation_set({"A": RingMatrix.identity(RATIONAL, 1)}, "BRAID_ALGEBRA")

    def test_unknown_set(self):
        with pytest.raises(MissingSlot):
            check_relation_set({}, "NOPE")


class TestSeriesConstructors:
    @pytest.mark.parametrize("series", ["I", "II", "III"])
    def test_jordan_blocks_pass(self, series):
        for size, eig in ((2, Fraction(2)), (3, Fraction(-1, 2))):
            rep = series_constructor(series, jordan_block(size, eig))
            assert check_relation_set(rep_assignment(rep), "BRAID_ALGEBRA") == []

    def test_series_ii_burau_block(self):
        rep = series_constructor("II", RingMatrix(LAURENT, [[q]]))
        assert rep.operator() == RingMatrix(LAURENT, [[0, q], [1, 1 - q]])

    def test_series_vi_matrix(self):
        rep = series_constructor("VI", (Fraction(3), Fraction(5)))
        expected = RingMatrix(
            RATIONAL,
            [[0, 1, 1, 5], [0, 0, 0, 1], [1, 0, 0, 3], [0, 1, 0, 0]],
        )
        assert rep.operator() == expected
        assert check_relation_set(rep_assignment(rep), "BRAID_ALGEBRA") == []

    def test_series_vi_needs_alpha(self):
        with pytest.raises(SingularInput):
            series_constructor("VI", (0, 1))

    def test_series_i_swap(self):
        rep = series_constructor("I", RingMatrix.identity(RATIONAL, 1))
        assert rep.operator() == RingMatrix(RATIONAL, [[0, 1], [1, 0]])

    def test_square_zero_series(self):
        rng = random.Random(4)
        A, B, C = (random_rational_matrix(2, rng) for _ in range(3))
        assert series_constructor("square_zero", (A, B, C)) == square_zero_rep(A, B, C)

    @pytest.mark.parametrize(
        "params",
        [
            RingMatrix.identity(RATIONAL, 2),
            (RingMatrix.identity(RATIONAL, 2),) * 2,
            (RingMatrix.identity(RATIONAL, 2),) * 2 + (RingMatrix.zeros(RATIONAL, 2, 3),),
            (1, 2, 3),
        ],
        ids=["one-matrix", "two-matrices", "non-square", "not-matrices"],
    )
    def test_square_zero_needs_three_square_matrices(self, params):
        with pytest.raises(InvalidSpec):
            series_constructor("SQUARE_ZERO", params)

    def test_singular_b_rejected(self):
        with pytest.raises(SingularInput):
            series_constructor("I", RingMatrix.zeros(RATIONAL, 2))

    def test_inverse_blocks(self):
        rep = series_constructor("II", jordan_block(2, Fraction(3)))
        op = rep.operator()
        inv = rep.inverse_operator()
        assert op * inv == RingMatrix.identity(RATIONAL, 4)


def alexander_from_burau(w: BraidWord) -> LaurentPoly:
    """Delta(T) of w's closure from the unreduced Burau matrix rho.

    With c_k the coefficients of char_poly(rho), sum k c_k = det(I - rho-bar)
    = (1 + T + ... + T^(n-1)) Delta(T) up to a unit +-T^j; Delta is returned
    with lowest exponent 0 and a positive leading coefficient.
    """
    coeffs = char_poly(rep_from_word(burau_rep(), w))
    total = sum((k * c for k, c in enumerate(coeffs)), LaurentPoly())
    delta = total.exact_div(sum((q**j for j in range(w.strands)), LaurentPoly()))
    delta = delta * q ** -delta.min_exp()
    return delta if delta.coeff(delta.max_exp()) > 0 else -delta


class TestAlexanderFromBurau:
    # Values that depend on the link itself, not only on its component count.
    @pytest.mark.parametrize(
        "strands, text, expected",
        [
            (1, "", LaurentPoly.const(1)),
            (2, "1 1", q - 1),
            (2, "1 1 1", q**2 - q + 1),
            (3, "1 -2 1 -2", q**2 - 3 * q + 1),
            (2, "1 1 1 1 1", q**4 - q**3 + q**2 - q + 1),
        ],
        ids=["unknot", "hopf", "trefoil", "figure-eight", "torus-2-5"],
    )
    def test_known_links_and_markov_perturbations(self, strands, text, expected):
        w = parse_braid_word(text, strands)
        assert alexander_from_burau(w) == expected
        for seed in range(20):
            assert alexander_from_burau(random_markov_perturbation(w, 4, seed)) == expected


class TestSquareZero:
    def test_nilpotent_products_vanish(self):
        rng = random.Random(1)
        A, B, C = (random_rational_matrix(2, rng) for _ in range(3))
        assignment = square_zero_assignment(A, B, C)
        a, t = assignment["x"], assignment["t"]
        c = assignment["y"] - RingMatrix.identity(RATIONAL, 4)
        for left in (a, t, c):
            for right in (a, t, c):
                assert (left * right).is_zero()

    def test_relations(self):
        rng = random.Random(2)
        for _ in range(3):
            A, B, C = (random_rational_matrix(2, rng) for _ in range(3))
            assignment = square_zero_assignment(A, B, C)
            assert check_relation_set(assignment, "SIMPLIFIED_COMMUTATIVE") == []
            rep = square_zero_rep(A, B, C)
            assert check_relation_set(rep_assignment(rep), "BRAID_ALGEBRA") == []


class TestGeneratorMatrices:
    def test_swap_placement(self):
        rep = series_constructor("I", RingMatrix.identity(RATIONAL, 1))
        m = dense_generator(rep, 3, 1)
        assert m == RingMatrix(RATIONAL, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        assert rep_from_word(rep, parse_braid_word("1", 3)) == m

    def test_far_commutation(self):
        rep = series_constructor("II", jordan_block(2, Fraction(2)))
        w_a = parse_braid_word("1 3", 4)
        w_b = parse_braid_word("3 1", 4)
        assert rep_from_word(rep, w_a) == rep_from_word(rep, w_b)

    def test_burau_braid_relation(self):
        rep = burau_rep()
        w_a = parse_braid_word("1 2 1", 3)
        w_b = parse_braid_word("2 1 2", 3)
        assert rep_from_word(rep, w_a) == rep_from_word(rep, w_b)

    def test_empty_word(self):
        rep = series_constructor("III", jordan_block(2, Fraction(1, 2)))
        assert rep_from_word(rep, BraidWord(3)) == RingMatrix.identity(RATIONAL, 6)

    def test_word_times_inverse(self):
        rep = series_constructor("II", jordan_block(2, Fraction(3)))
        w = parse_braid_word("1 2 -1", 3)
        assert rep_from_word(rep, w * w.inverse()) == RingMatrix.identity(RATIONAL, 6)

    def test_braid_relation_all_series(self):
        rng = random.Random(3)
        w_a = parse_braid_word("1 2 1", 4)
        w_b = parse_braid_word("2 1 2", 4)
        for series in ("I", "II", "III"):
            rep = series_constructor(series, random_invertible_matrix(2, rng))
            assert rep_from_word(rep, w_a) == rep_from_word(rep, w_b)
        rep = series_constructor("VI", (Fraction(2), Fraction(-1)))
        assert rep_from_word(rep, w_a) == rep_from_word(rep, w_b)


class TestBandedWord:
    """rep_from_word's banded updates against the dense per-letter product."""

    @pytest.mark.parametrize("rep, period2", oracle_reps())
    @settings(max_examples=40, deadline=None)
    @given(w=braid_words())
    def test_matches_dense_oracle(self, rep, period2, w):
        result = rep_from_word(rep, w, period2)
        assert result == dense_rep_from_word(rep, w, period2)
        # Built without re-coercion: rows are tuples of the ring's own type.
        kind = type(rep.ring.zero)
        assert all(type(row) is tuple for row in result.entries)
        assert all(type(x) is kind for row in result.entries for x in row)

    def test_one_strand_is_identity(self):
        rep = pair_to_block_rep(type_I_pair([(1, 1)]))
        assert rep_from_word(rep, BraidWord(1)) == RingMatrix.identity(RATIONAL, 3)

    def test_mismatched_companion_rejected_on_empty_word(self):
        rep = series_constructor("II", jordan_block(2, Fraction(3)))
        with pytest.raises(DimensionMismatch, match="period-2 companion"):
            rep_from_word(rep, BraidWord(3), period2=burau_rep())


class TestPeriod2:
    def test_relations(self):
        rep1, rep2 = period2_pair()
        assignment = {
            "A1": rep1.A, "B1": rep1.B, "C1": rep1.C, "D1": rep1.D,
            "A2": rep2.A, "B2": rep2.B, "C2": rep2.C, "D2": rep2.D,
        }
        assert check_relation_set(assignment, "PERIOD2") == []

    def test_braid_relation_alternating(self):
        rep1, rep2 = period2_pair()
        w_a = parse_braid_word("1 2 1", 4)
        w_b = parse_braid_word("2 1 2", 4)
        assert rep_from_word(rep1, w_a, period2=rep2) == rep_from_word(
            rep1, w_b, period2=rep2
        )

    def test_inverses_alternating(self):
        rep1, rep2 = period2_pair()
        w = parse_braid_word("1 -1 2 -2", 4)
        assert rep_from_word(rep1, w, period2=rep2) == RingMatrix.identity(RATIONAL, 4)


class TestBurauQuadratic:
    def test_series_ii_symbolic(self):
        assert burau_quadratic_check(burau_rep())

    def test_series_i_fails(self):
        rep = series_constructor("I", RingMatrix(LAURENT, [[q]]))
        assert not burau_quadratic_check(rep)

    def test_degenerate_q_one(self):
        rep = series_constructor("II", RingMatrix(RATIONAL, [[1]]))
        assert burau_quadratic_check(rep)


class TestTypeIPair:
    def test_minimal_spec(self):
        p = type_I_pair([(1, 1)])
        assert p.dim == 3
        # Basis: v, v p1, v p2.  p1 shifts into the first chain, p2 into the
        # second; all chain tops die.
        assert p.p1 == RingMatrix(RATIONAL, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert p.p2 == RingMatrix(RATIONAL, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])

    def test_degenerate_spec_rejected(self):
        with pytest.raises(InvalidSpec):
            type_I_pair([(1, 0)])
        with pytest.raises(InvalidSpec):
            type_I_pair([])

    def test_two_block_spec(self):
        p = type_I_pair([(1, 1), (1, 1)])
        assert p.dim == 5
        assert (p.p1 * p.p2).is_zero() and (p.p2 * p.p1).is_zero()
        # The chain-top identification makes p2 land on the second p1 chain.
        x, y = pair_to_triangle_rep(p)
        assert y * y + x * y == y

    def test_validation_conditions(self):
        with pytest.raises(InvalidSpec):
            type_I_pair([(1, 1), (0, 1)])


class TestTypeIIPair:
    def test_minimal_spec(self):
        p = type_II_pair([(1, 1)], [Fraction(1)])
        assert p.dim == 2
        assert p.p1 == RingMatrix(RATIONAL, [[0, 1], [0, 0]])
        assert p.p2 == RingMatrix(RATIONAL, [[0, 1], [0, 0]])

    def test_periodic_rejected(self):
        with pytest.raises(PeriodicSpec):
            type_II_pair([(1, 1), (1, 1)], [Fraction(1)])

    def test_zero_trailing_coefficient(self):
        with pytest.raises(InvalidPolynomial):
            type_II_pair([(1, 1)], [Fraction(0)])

    def test_longer_spec(self):
        p = type_II_pair([(1, 2), (2, 1)], [Fraction(2), Fraction(3)])
        assert p.dim == 2 * (1 + 2 + 2 + 1)
        assert (p.p1 * p.p2).is_zero() and (p.p2 * p.p1).is_zero()
        x, y = pair_to_triangle_rep(p)
        assert y * y + x * y == y


class TestPairToTriangle:
    def test_three_dim_example(self):
        e13 = RingMatrix(RATIONAL, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        e23 = RingMatrix(RATIONAL, [[0, 0, 0], [0, 0, 1], [0, 0, 0]])
        p = PairOperators(3, e13, e23)
        x, y = pair_to_triangle_rep(p)
        ident = RingMatrix.identity(RATIONAL, 3)
        assert x == e23 - e13 + ident
        assert y == e13
        assert y * y + x * y == y
        assert mat_det(x) != 0

    def test_commutation_identities(self):
        p = type_I_pair([(2, 1), (1, 2)])
        x, y = pair_to_triangle_rep(p)
        # In block terms B = x and D = y: BD = DB and D^2 + BD = D.
        assert x * y == y * x
        assert y * y + x * y == y

    def test_zero_operator_rejected(self):
        e12 = RingMatrix(RATIONAL, [[0, 1], [0, 0]])
        with pytest.raises(InvalidSpec):
            PairOperators(2, e12, RingMatrix.zeros(RATIONAL, 2))

    def test_induced_block_rep(self):
        for p in (type_I_pair([(1, 1)]), type_II_pair([(1, 1)], [Fraction(1)])):
            rep = pair_to_block_rep(p)
            assert check_relation_set(rep_assignment(rep), "BRAID_ALGEBRA") == []
            w_a = parse_braid_word("1 2 1", 4)
            w_b = parse_braid_word("2 1 2", 4)
            assert rep_from_word(rep, w_a) == rep_from_word(rep, w_b)


def test_block_operator_layout():
    a = RingMatrix(RATIONAL, [[1]])
    b = RingMatrix(RATIONAL, [[2]])
    c = RingMatrix(RATIONAL, [[3]])
    d = RingMatrix(RATIONAL, [[4]])
    assert block_operator(a, b, c, d) == RingMatrix(RATIONAL, [[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch, match="ring mismatch"):
        block_operator(a, b, c, d.to_ring(LAURENT))
    with pytest.raises(DimensionMismatch, match="equal shape"):
        block_operator(a, b, c, RingMatrix.identity(RATIONAL, 2))


def test_nilpotency_of_pairs():
    for p in (type_I_pair([(2, 2)]), type_II_pair([(2, 1)], [Fraction(-1)])):
        n = p.dim
        power1, power2 = p.p1, p.p2
        for _ in range(n):
            power1 = power1 * p.p1
            power2 = power2 * p.p2
        assert power1.is_zero() and power2.is_zero()
