"""Braid tensors, the braid equation, partial traces, and trace routes."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge.braids import BraidWord, parse_braid_word, random_braid_word
from braidforge.errors import (
    DimensionMismatch,
    NoMatrixPair,
    NonUnitDeterminant,
    NotScalar,
    SingularInput,
    ZeroScalar,
)
from braidforge.matrix import RingMatrix, kron, mat_inverse, random_invertible_matrix
from braidforge.rings import INTEGER, LAURENT, RATIONAL, LaurentPoly
from braidforge.presets import standard_tensor
from braidforge.tensors import (
    BraidTensor,
    SlotOperator,
    check_braid_equation,
    identity_tensor,
    matrix_to_tensor,
    partial_trace_scalars,
    swap_tensor,
    tensor_from_matrix_pair,
    tensor_inverse,
    tensor_rep_trace,
    tensor_to_matrix,
)

T = LaurentPoly.var()


def rational_pair_tensor(m: int, seed: int) -> BraidTensor:
    rng = random.Random(seed)
    a = random_invertible_matrix(m, rng)
    b = mat_b = a**-1
    return tensor_from_matrix_pair(a, mat_b)


class TestTensorMatrixRoundTrip:
    def test_round_trip(self):
        t = standard_tensor(2, 7)
        assert matrix_to_tensor(tensor_to_matrix(t), 2) == BraidTensor(
            t.m, t.ring, t.entries
        )

    def test_identity(self):
        t = identity_tensor(3, RATIONAL)
        assert tensor_to_matrix(t) == RingMatrix.identity(RATIONAL, 9)

    def test_swap_matrix(self):
        t = swap_tensor(2, RATIONAL)
        expected = RingMatrix(
            RATIONAL,
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        )
        assert tensor_to_matrix(t) == expected


class TestTensorFromMatrixPair:
    def test_entry_formula(self):
        a = RingMatrix(RATIONAL, [[1, 2], [3, 4]])
        b = RingMatrix(RATIONAL, [[5, 6], [7, 1]])
        t = tensor_from_matrix_pair(a, b)
        for i1 in range(2):
            for i2 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        assert t[i1, i2, j1, j2] == (
                            b.entries[i1][j2] * a.entries[i2][j1]
                        )

    def test_singular_rejected(self):
        a = RingMatrix(RATIONAL, [[1, 0], [0, 1]])
        s = RingMatrix(RATIONAL, [[1, 1], [1, 1]])
        with pytest.raises(SingularInput):
            tensor_from_matrix_pair(s, a)
        with pytest.raises(SingularInput):
            tensor_from_matrix_pair(a, s)

    def test_pair_recorded(self):
        t = standard_tensor(2, 3)
        assert t.pair is not None
        a, b = t.pair
        assert b == a**-1 * RingMatrix.identity(LAURENT, 2).scale(T) or b == (
            RingMatrix.identity(LAURENT, 2).scale(T) * a**-1
        )


def braid_equation_oracle(T1, T2, name):
    """The nine-deep loop: where R12(T1) R23(T2) R12(T1) != R23(T2) R12(T1) R23(T2).

    For name "xvi" the roles are swapped (T1 = U, T2 = T) and the equation is
    read at (i2, i3, i1, j2, j3, j1).
    """
    m, ring = T1.m, T1.ring
    rng = range(m)
    out = []
    for i1, i2, i3, j1, j2, j3 in itertools.product(rng, repeat=6):
        if name == "xvi":
            at = (i2, i3, i1, j2, j3, j1)
        else:
            at = (i1, i2, i3, j1, j2, j3)
        lhs = rhs = ring.zero
        for k1, k2, k3 in itertools.product(rng, repeat=3):
            lhs = lhs + (
                T1[at[0], at[1], k1, k3] * T2[k3, at[2], k2, at[5]] * T1[k1, k2, at[3], at[4]]
            )
            rhs = rhs + (
                T2[at[1], at[2], k1, k3] * T1[at[0], k1, at[3], k2] * T2[k2, k3, at[4], at[5]]
            )
        if lhs != rhs:
            out.append((name, (i1, i2, i3, j1, j2, j3)))
    return out


def oracle_violations(T, U=None):
    if U is None:
        return braid_equation_oracle(T, T, "viii")
    return braid_equation_oracle(T, U, "xv") + braid_equation_oracle(U, T, "xvi")


def unpaired(t):
    return BraidTensor(t.m, t.ring, t.entries)


small_tensors = st.builds(
    lambda xs: BraidTensor.from_function(
        2, RATIONAL, lambda i1, i2, j1, j2: xs[((i1 * 2 + i2) * 2 + j1) * 2 + j2]
    ),
    st.lists(st.integers(-2, 2), min_size=16, max_size=16),
)


class TestBraidEquation:
    def test_identity_passes(self):
        assert check_braid_equation(identity_tensor(2, RATIONAL)) == []

    def test_swap_passes(self):
        assert check_braid_equation(swap_tensor(2, RATIONAL)) == []

    def test_standard_pairs_pass(self):
        for m, seed in ((2, 0), (2, 5), (3, 1)):
            assert check_braid_equation(standard_tensor(m, seed)) == []

    def test_random_tensor_fails(self):
        entries = [
            [
                [
                    [Fraction(i1 + 2 * i2 + 3 * j1 + 5 * j2 + 1) for j2 in range(2)]
                    for j1 in range(2)
                ]
                for i2 in range(2)
            ]
            for i1 in range(2)
        ]
        t = BraidTensor(2, RATIONAL, entries)
        assert check_braid_equation(t) != []

    def test_period_two_pair(self):
        rng = random.Random(11)
        a = random_invertible_matrix(2, rng)
        ring_t = RingMatrix.identity(LAURENT, 2).scale(T)
        a_l = a.to_ring(LAURENT)
        t1 = tensor_from_matrix_pair(a_l, ring_t * a_l**-1)
        b = random_invertible_matrix(2, rng).to_ring(LAURENT)
        t2 = tensor_from_matrix_pair(b, ring_t * b**-1)
        assert check_braid_equation(t1, t2) == []

    @settings(max_examples=60, deadline=None)
    @given(small_tensors)
    def test_period_one_matches_oracle(self, t):
        assert check_braid_equation(t) == oracle_violations(t)

    @settings(max_examples=60, deadline=None)
    @given(small_tensors, small_tensors)
    def test_period_two_matches_oracle(self, t, u):
        assert check_braid_equation(t, u) == oracle_violations(t, u)

    def test_failing_m3_matches_oracle(self):
        t = BraidTensor.from_function(
            3, RATIONAL, lambda i1, i2, j1, j2: (i1 * 7 + i2 * 5 + j1 * 3 + j2 + 1) % 4 - 1
        )
        violations = check_braid_equation(t)
        assert violations != []
        assert violations == oracle_violations(t)

    @pytest.mark.parametrize("m", [2, 3])
    def test_non_commuting_pair_lists_entries(self, m):
        rng = random.Random(70 + m)
        a, b = (random_invertible_matrix(m, rng) for _ in range(2))
        assert a * b != b * a
        t = tensor_from_matrix_pair(a, b)
        violations = check_braid_equation(t)
        assert violations != []
        assert violations == check_braid_equation(unpaired(t)) == oracle_violations(t)

    def test_period_two_pair_only_xvi_fails(self):
        rng = random.Random(81)
        a1, b1, a2 = (random_invertible_matrix(2, rng) for _ in range(3))
        b2 = a1 * b1 * mat_inverse(a2)
        assert b2 * a2 == a1 * b1 and a2 * b2 != b1 * a1
        t, u = tensor_from_matrix_pair(a1, b1), tensor_from_matrix_pair(a2, b2)
        violations = check_braid_equation(t, u)
        assert violations != [] and {name for name, _ in violations} == {"xvi"}
        assert violations == check_braid_equation(unpaired(t), unpaired(u))
        assert violations == oracle_violations(t, u)

    @pytest.mark.parametrize("seed", [1, 8])
    def test_unpaired_standard_m3_matches_oracle(self, seed):
        t = unpaired(standard_tensor(3, seed))
        assert check_braid_equation(t) == oracle_violations(t) == []

    def test_passing_pairs_skip_slot_operators(self, monkeypatch):
        def fail(self, rows):
            raise AssertionError("pair tensors that pass need no slot operator")

        t, u = standard_tensor(3, 2), standard_tensor(2, 3)
        monkeypatch.setattr(SlotOperator, "apply_rows", fail)
        assert check_braid_equation(t) == []
        assert check_braid_equation(u, standard_tensor(2, 4)) == []

    def test_pair_cannot_be_passed_in(self):
        # A trusted pair given by hand could vouch for entries it does not
        # describe, so only tensor_from_matrix_pair may attach one.
        entries = standard_tensor(2, 3).entries
        ident = RingMatrix.identity(LAURENT, 2)
        with pytest.raises(TypeError):
            BraidTensor(2, LAURENT, entries, pair=(ident, ident))
        with pytest.raises(TypeError):
            BraidTensor.from_function(
                2, RATIONAL, lambda *idx: 0, pair=(ident, ident)
            )

    def test_pair_less_twin_takes_general_route(self, monkeypatch):
        calls = []
        apply_rows = SlotOperator.apply_rows

        def counting(self, rows):
            calls.append(1)
            return apply_rows(self, rows)

        twin = unpaired(standard_tensor(2, 3))
        assert twin.pair is None
        monkeypatch.setattr(SlotOperator, "apply_rows", counting)
        assert check_braid_equation(twin) == []
        assert calls

    def test_period_two_rings_must_match(self):
        with pytest.raises(DimensionMismatch):
            check_braid_equation(standard_tensor(2, 0), swap_tensor(2, RATIONAL))
        with pytest.raises(DimensionMismatch):
            check_braid_equation(swap_tensor(2, RATIONAL), swap_tensor(3, RATIONAL))


class TestTensorInverse:
    def test_matrix_inverse(self):
        t = standard_tensor(2, 4)
        inv = tensor_inverse(t)
        assert tensor_to_matrix(t) * tensor_to_matrix(inv) == RingMatrix.identity(
            LAURENT, 4
        )

    def test_pair_propagates(self):
        t = standard_tensor(2, 4)
        inv = tensor_inverse(t)
        a, b = t.pair
        assert inv.pair == (b**-1, a**-1)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("ring", [RATIONAL, LAURENT], ids=lambda r: r.name)
    def test_pair_route_matches_matrix_route(self, m, ring):
        rng = random.Random(40 + m)
        # Over LAURENT the pair gets polynomial entries and a monomial factor.
        up, c = (T - 1, -2 * T**-1) if ring is LAURENT else (3, -2)
        shear = RingMatrix(
            ring,
            [
                [1 if j == i else up if j == i + 1 else 0 for j in range(m)]
                for i in range(m)
            ],
        )
        tensors = [standard_tensor(m, 4)] if ring is LAURENT else []
        for _ in range(3):
            a, b = (random_invertible_matrix(m, rng).to_ring(ring) for _ in range(2))
            tensors.append(tensor_from_matrix_pair(a * shear, b.scale(c)))
        for t in tensors:
            inv = tensor_inverse(t)
            assert inv == matrix_to_tensor(mat_inverse(tensor_to_matrix(t)), m)
            assert tensor_to_matrix(t) * tensor_to_matrix(inv) == RingMatrix.identity(
                ring, m * m
            )


class TestPartialTraces:
    def test_identity_scalars(self):
        assert partial_trace_scalars(identity_tensor(2, RATIONAL)) == (
            Fraction(2),
            Fraction(2),
        )

    def test_swap_scalars(self):
        assert partial_trace_scalars(swap_tensor(2, RATIONAL)) == (
            Fraction(1),
            Fraction(1),
        )

    def test_standard_pair_scalars(self):
        for m in (2, 3):
            t = standard_tensor(m, 9)
            assert partial_trace_scalars(t) == (T, T**-1)

    def test_not_scalar(self):
        # gamma = diag(2, 0): a partial trace that is diagonal but not scalar.
        entries = [
            [
                [
                    [
                        Fraction(1) if (i1, i2) == (j1, j2) and i1 == 0 else Fraction(0)
                        for j2 in range(2)
                    ]
                    for j1 in range(2)
                ]
                for i2 in range(2)
            ]
            for i1 in range(2)
        ]
        bad = BraidTensor(2, RATIONAL, entries)
        with pytest.raises(NotScalar):
            partial_trace_scalars(bad)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("ring", [RATIONAL, LAURENT], ids=lambda r: r.name)
    def test_pair_route_matches_four_index_route(self, m, ring):
        rng = random.Random(60 + m)
        c = -2 * T**3 if ring is LAURENT else Fraction(-2, 3)
        tensors = [standard_tensor(m, seed) for seed in range(5)] if ring is LAURENT else []
        for _ in range(3):
            a = random_invertible_matrix(m, rng).to_ring(ring)
            tensors.append(tensor_from_matrix_pair(a, mat_inverse(a).scale(c)))
        for t in tensors:
            unpaired = BraidTensor(t.m, t.ring, t.entries)
            assert partial_trace_scalars(t) == partial_trace_scalars(unpaired)

    def test_pair_with_non_scalar_product_fails(self):
        a = RingMatrix(RATIONAL, [[1, 1], [0, 1]])
        t = tensor_from_matrix_pair(a, RingMatrix.identity(RATIONAL, 2))
        for tensor in (t, BraidTensor(t.m, t.ring, t.entries)):
            with pytest.raises(NotScalar):
                partial_trace_scalars(tensor)

    def test_zero_scalar(self):
        zero = BraidTensor(
            2, RATIONAL, [[[[Fraction(0)] * 2] * 2] * 2] * 2
        )
        with pytest.raises(ZeroScalar):
            partial_trace_scalars(zero)


class TestSlotOperators:
    def test_generator_matrix_matches_kron(self):
        t = standard_tensor(2, 2)
        op = SlotOperator(t, 3, 1)
        expected = kron(tensor_to_matrix(t), RingMatrix.identity(LAURENT, 2))
        assert op.to_matrix() == expected

    def test_generator_second_slot(self):
        t = standard_tensor(2, 2)
        op = SlotOperator(t, 3, 2)
        expected = kron(RingMatrix.identity(LAURENT, 2), tensor_to_matrix(t))
        assert op.to_matrix() == expected

    def test_braid_relation_as_matrices(self):
        t = standard_tensor(2, 6)
        g1 = SlotOperator(t, 3, 1).to_matrix()
        g2 = SlotOperator(t, 3, 2).to_matrix()
        assert g1 * g2 * g1 == g2 * g1 * g2


class TestTraceRoutes:
    def test_methods_agree_fixed_words(self):
        t = standard_tensor(2, 1)
        for text, strands in (
            ("", 1),
            ("1", 2),
            ("1 1 1", 2),
            ("1 -2 1 -2", 3),
            ("1 2 -1 3", 4),
        ):
            w = parse_braid_word(text, strands)
            dense = tensor_rep_trace(t, w, "dense")
            contract = tensor_rep_trace(t, w, "contract")
            slots = tensor_rep_trace(t, w, "slots")
            assert dense == contract == slots

    def test_methods_agree_random(self):
        rng = random.Random(21)
        t = standard_tensor(2, 13)
        for _ in range(6):
            w = random_braid_word(rng, max_strands=4, max_letters=6)
            dense = tensor_rep_trace(t, w, "dense")
            contract = tensor_rep_trace(t, w, "contract")
            slots = tensor_rep_trace(t, w, "slots")
            assert dense == contract == slots

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1 << 16), st.data())
    def test_slots_match_contract_random(self, seed, data):
        strands = data.draw(st.integers(2, 5))
        letter = st.builds(
            lambda i, sign: i * sign, st.integers(1, strands - 1), st.sampled_from((1, -1))
        )
        w = BraidWord(strands, tuple(data.draw(st.lists(letter, max_size=6))))
        t = standard_tensor(2, seed)
        assert tensor_rep_trace(t, w, "slots") == tensor_rep_trace(t, w, "contract")

    def test_empty_word_trace(self):
        t = standard_tensor(2, 1)
        w = BraidWord(3)
        assert tensor_rep_trace(t, w) == LaurentPoly.const(8)

    def test_swap_tensor_trace_counts_cycles(self):
        t = swap_tensor(2, RATIONAL)
        # The closure of t1 t2 in B3 has one component; the slot trace of the
        # swap tensor is m^{#components}.
        w = parse_braid_word("1 2", 3)
        assert tensor_rep_trace(t, w, "dense") == Fraction(2)
        assert tensor_rep_trace(t, BraidWord(3), "dense") == Fraction(8)

    def test_slots_need_a_pair(self):
        t = swap_tensor(2, RATIONAL)
        w = parse_braid_word("1 2", 3)
        with pytest.raises(NoMatrixPair, match="matrix pair"):
            tensor_rep_trace(t, w, "slots")
        assert tensor_rep_trace(t, w) == tensor_rep_trace(t, w, "contract")

    def test_unknown_method(self):
        t = standard_tensor(2, 1)
        with pytest.raises(ValueError):
            tensor_rep_trace(t, BraidWord(2, (1,)), "magic")


def test_jsonable():
    t = swap_tensor(2, RATIONAL)
    data = t.to_jsonable()
    assert data["m"] == 2
    assert isinstance(data["entries"], list)


# -- integer forms -----------------------------------------------------------


def contraction_oracle(T, w):
    """The trace by the Laurent contraction the integer path replaced.

    One sparse row map in the tensor's own ring, each letter applied by
    unranking and reranking whole configurations, with the inverse taken
    from the m^2 x m^2 matrix; no integer form is involved.
    """
    m, ring = T.m, T.ring
    inv = None
    if any(k < 0 for k in w.letters):
        inv = matrix_to_tensor(mat_inverse(tensor_to_matrix(T)), m)
    configs = list(itertools.product(range(m), repeat=w.strands))
    rank = {cfg: r for r, cfg in enumerate(configs)}
    rows = {r: {r: ring.one} for r in range(len(configs))}
    for letter in w.letters:
        X, i = (T if letter > 0 else inv), abs(letter)
        out = {}
        for row, cols in rows.items():
            acc = {}
            for col, coeff in cols.items():
                cfg = configs[col]
                for p, q in itertools.product(range(m), repeat=2):
                    val = X[cfg[i - 1], cfg[i], p, q]
                    if not ring.is_zero(val):
                        new = rank[cfg[: i - 1] + (p, q) + cfg[i + 1 :]]
                        acc[new] = acc.get(new, ring.zero) + coeff * val
            out[row] = acc
        rows = out
    return sum((rows[r].get(r, ring.zero) for r in rows), ring.zero)


@st.composite
def monomial_factors(draw, ring, m):
    """s * T^e * a for a seeded invertible integer a."""
    a = random_invertible_matrix(m, random.Random(draw(st.integers(0, 1 << 16))))
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))
    exp = draw(st.integers(-2, 2)) if ring is LAURENT else 0
    return a.to_ring(ring).scale(ring.monomial(scale, exp))


@st.composite
def monomial_tensors(draw):
    """Pair tensors of two monomial factors over either ring, m = 1-3, or
    their pair-less twins."""
    ring = draw(st.sampled_from([RATIONAL, LAURENT]))
    m = draw(st.integers(1, 3))
    t = tensor_from_matrix_pair(
        draw(monomial_factors(ring, m)), draw(monomial_factors(ring, m))
    )
    return unpaired(t) if draw(st.booleans()) else t


@st.composite
def oracle_words(draw, m):
    """Words of 1-5 strands, empty and negative letters included; at m = 3
    at most 3 strands, so that the Laurent oracle stays cheap."""
    strands = draw(st.integers(1, 5 if m < 3 else 3))
    if strands == 1:
        return BraidWord(1)
    letter = st.builds(
        lambda i, sign: i * sign, st.integers(1, strands - 1), st.sampled_from((1, -1))
    )
    return BraidWord(strands, tuple(draw(st.lists(letter, max_size=5))))


def laurent_shear_pair() -> BraidTensor:
    """The pair (a, T a^-1) with a = [[1, 1 + T], [0, 1]]: entries of mixed
    degree, so the tensor has no integer form."""
    a = RingMatrix(LAURENT, [[1, 1 + T], [0, 1]])
    return tensor_from_matrix_pair(a, mat_inverse(a).scale(T))


class TestIntegerPath:
    @settings(max_examples=60, deadline=None)
    @given(monomial_tensors(), st.data())
    def test_routes_match_laurent_oracle(self, t, data):
        assert t.integer_form is not None
        w = data.draw(oracle_words(t.m))
        expected = contraction_oracle(t, w)
        routes = ("contract", "dense") + (("slots",) if t.pair is not None else ())
        for route in routes:
            value = tensor_rep_trace(t, w, route)
            assert value == expected
            assert type(value) is type(t.ring.zero)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([RATIONAL, LAURENT]), st.integers(1, 2), st.data())
    def test_pair_check_matches_oracle(self, ring, m, data):
        a = data.draw(monomial_factors(ring, m))
        e = 1 if ring is LAURENT else 0
        # b = c a^-1 commutes with a; a random b usually does not.
        if data.draw(st.booleans()):
            b = mat_inverse(a).scale(ring.monomial(data.draw(st.sampled_from([1, -2])), e))
        else:
            b = data.draw(monomial_factors(ring, m))
        t = tensor_from_matrix_pair(a, b)
        assert check_braid_equation(t) == oracle_violations(t)
        # A partner with rescaled factors: a2 b2 = a b, with other scales.
        mu = ring.monomial(data.draw(st.sampled_from([Fraction(2), Fraction(-1, 3)])), e)
        u = tensor_from_matrix_pair(a.scale(mu), b.scale(ring.unit_inverse(mu)))
        assert check_braid_equation(t, u) == oracle_violations(t, u)
        assert check_braid_equation(u, t) == oracle_violations(u, t)

    def test_routes_run_on_integers(self, monkeypatch):
        t = standard_tensor(2, 5)
        w = parse_braid_word("1 -2 1 -2", 3)
        expected = {r: tensor_rep_trace(t, w, r) for r in ("slots", "contract", "dense")}
        calls = []
        mul = LaurentPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(LaurentPoly, "__mul__", counting)
        for route, value in expected.items():
            assert tensor_rep_trace(t, w, route) == value
        assert check_braid_equation(t) == []
        assert calls == []

    def test_form_of_standard_tensor(self):
        t = standard_tensor(3, 7)
        f = t.integer_form
        assert f.tensor.ring is INTEGER and f.tensor.pair is not None
        unit = LAURENT.monomial(f.scale, f.exp)
        assert BraidTensor.from_function(
            3, LAURENT, lambda *idx: unit * f.tensor[idx]
        ) == t
        inv = f.inverse
        unit = LAURENT.monomial(inv.scale, inv.exp)
        assert BraidTensor.from_function(
            3, LAURENT, lambda *idx: unit * inv.tensor[idx]
        ) == tensor_inverse(t)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_pairless_twin_reads_inverse_from_form(self, m, monkeypatch):
        # The twin keeps the entries of standard_tensor but no pair, so its
        # scalars and inverse come from its integer form.  The oracle is the
        # ring inversion of its m^2 x m^2 matrix.
        for seed in range(3):
            t = standard_tensor(m, seed)
            twin = unpaired(t)
            oracle_inverse = matrix_to_tensor(mat_inverse(tensor_to_matrix(twin)), m)
            expected = tuple(
                sum((x[0, j, 0, j] for j in range(m)), LAURENT.zero)
                for x in (twin, oracle_inverse)
            )
            # Warm the form and its inverse.
            assert twin.integer_form.inverse is not None
            calls = []
            mul = LaurentPoly.__mul__

            def counting(self, other):
                calls.append(1)
                return mul(self, other)

            monkeypatch.setattr(LaurentPoly, "__mul__", counting)
            monkeypatch.setattr(LaurentPoly, "__rmul__", counting)
            scalars, inverse = partial_trace_scalars(twin), tensor_inverse(twin)
            monkeypatch.undo()
            assert calls == []
            assert scalars == expected == partial_trace_scalars(t)
            assert repr(scalars) == repr(expected)
            assert inverse == oracle_inverse and inverse.pair is None
            assert tensor_inverse(t) == oracle_inverse


class TestLaurentPath:
    WORDS = (("", 1), ("1", 2), ("-1 -1 1", 2), ("1 -2 1 -2", 3), ("2 -1 3 -2", 4))

    def test_mixed_degree_pair_matches_oracle(self):
        t = laurent_shear_pair()
        assert t.integer_form is None
        assert check_braid_equation(t) == oracle_violations(t) == []
        for text, strands in self.WORDS:
            w = parse_braid_word(text, strands)
            expected = contraction_oracle(t, w)
            for route in ("slots", "contract", "dense"):
                assert tensor_rep_trace(t, w, route) == expected

    def test_pairless_laurent_tensor_matches_oracle(self):
        t = unpaired(laurent_shear_pair())
        assert t.integer_form is None
        assert check_braid_equation(t) == oracle_violations(t) == []
        for text, strands in self.WORDS:
            w = parse_braid_word(text, strands)
            expected = contraction_oracle(t, w)
            for route in ("contract", "dense"):
                assert tensor_rep_trace(t, w, route) == expected
        # A failing pair-less Laurent tensor lists its violations as before.
        a = RingMatrix(LAURENT, [[1, 1 + T], [0, 1]])
        bad = unpaired(tensor_from_matrix_pair(a, RingMatrix(LAURENT, [[1, 0], [1, 1]])))
        assert check_braid_equation(bad) == oracle_violations(bad) != []

    def test_singular_tensors_raise(self):
        w = parse_braid_word("1 -1", 2)
        ones = BraidTensor.from_function(2, RATIONAL, lambda *idx: 1)
        assert ones.integer_form is not None
        mixed = BraidTensor.from_function(2, LAURENT, lambda *idx: 1 + T)
        non_unit = matrix_to_tensor(
            RingMatrix(
                LAURENT,
                [[1 + T if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)],
            ),
            2,
        )
        for t in (ones, mixed, non_unit):
            for route in ("contract", "dense"):
                with pytest.raises(NonUnitDeterminant):
                    tensor_rep_trace(t, w, route)
        assert tensor_rep_trace(ones, parse_braid_word("1 1", 2), "dense") == 16
        a = RingMatrix(RATIONAL, [[1, 2], [2, 4]])
        with pytest.raises(SingularInput):
            tensor_from_matrix_pair(a, RingMatrix.identity(RATIONAL, 2))
