"""G-braids, the five invariants, and Markov invariance."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge.braids import (
    BraidWord,
    Permutation,
    parse_braid_word,
    random_braid_word,
)
from braidforge.errors import (
    InvalidSpec,
    RelationViolated,
    SimplicityUnverified,
    TraceConditionFailed,
)
from braidforge.blockreps import BlockRep, series_constructor, square_zero_rep
from braidforge.invariants import (
    BracketResidue,
    GBraid,
    LabelScheme,
    SimplicityVerdict,
    _shape_monomials,
    bracket_invariant,
    charpoly_class_invariant,
    charpoly_family_invariant,
    component_products,
    gbraid_from_braid,
    group_trace_invariant,
    markov_invariance_suite,
    simplicity_check,
    tensor_trace_invariant,
    value_to_jsonable,
)
from braidforge.matrix import (
    RingMatrix,
    mat_inverse,
    random_invertible_matrix,
    random_rational_matrix,
)
from braidforge import invariants, presets
from braidforge.presets import (
    conjugated_u_scheme,
    inverse_scheme,
    invariant_function,
    standard_tensor,
    swap_block_rep,
    t_inverse_scheme,
)
from braidforge.rings import LAURENT, RATIONAL, LaurentPoly
from braidforge.tensors import (
    identity_tensor,
    partial_trace_scalars,
    swap_tensor,
    tensor_from_matrix_pair,
)

T = LaurentPoly.var()

TREFOIL = BraidWord(2, (1, 1, 1))
FIGURE_EIGHT = BraidWord(3, (1, -2, 1, -2))


SCHEMES = {
    "INVERSE": lambda seed: inverse_scheme(2, seed),
    "T_INVERSE": lambda seed: t_inverse_scheme(2, seed),
    # A non-scalar u keeps the prefix conjugation in b_s.
    "CONJUGATED_U": lambda seed: LabelScheme(
        "CONJUGATED_U", 2, seed=seed, u=random_invertible_matrix(2, random.Random(seed))
    ),
}


@st.composite
def braid_words(draw, max_strands=7, max_letters=8):
    strands = draw(st.integers(1, max_strands))
    if strands == 1:
        return BraidWord(1)
    letter = st.builds(
        lambda i, sign: i * sign, st.integers(1, strands - 1), st.sampled_from((1, -1))
    )
    return BraidWord(strands, tuple(draw(st.lists(letter, max_size=max_letters))))


def gbraid_identity(strands: int, ring, m: int) -> GBraid:
    ident = RingMatrix.identity(ring, m)
    return GBraid(strands, Permutation.identity(strands), (ident,) * strands)


def gbraid_mul(g: GBraid, h: GBraid) -> GBraid:
    """Composition 'g first, then h'."""
    assert g.strands == h.strands
    labels = tuple(
        g.labels[j - 1] * h.labels[g.perm(j) - 1] for j in range(1, g.strands + 1)
    )
    return GBraid(g.strands, g.perm.compose(h.perm), labels)


def gbraid_inverse(g: GBraid) -> GBraid:
    inv_perm = g.perm.inverse()
    labels = tuple(
        mat_inverse(g.labels[inv_perm(j) - 1]) for j in range(1, g.strands + 1)
    )
    return GBraid(g.strands, inv_perm, labels)


def letter_by_letter(w: BraidWord, scheme: LabelScheme) -> GBraid:
    """The G-braid of w as a product of one step G-braid per letter."""
    n = w.strands
    ident = RingMatrix.identity(scheme.ring, scheme.m)
    result = gbraid_identity(n, scheme.ring, scheme.m)
    for letter in w.letters:
        i = abs(letter)
        labels = [ident] * n
        if letter > 0:
            labels[i - 1], labels[i] = scheme.a(i), scheme.b(i)
        else:
            labels[i - 1] = mat_inverse(scheme.b(i))
            labels[i] = mat_inverse(scheme.a(i))
        step = GBraid(n, Permutation.transposition(n, i), tuple(labels))
        result = gbraid_mul(result, step)
    return result


class TestGBraid:
    def test_identity(self):
        g = gbraid_identity(3, RATIONAL, 2)
        assert gbraid_mul(g, g) == g

    def test_word_times_inverse(self):
        scheme = inverse_scheme(2, 17)
        g = gbraid_from_braid(parse_braid_word("1 2 -1", 3), scheme)
        assert gbraid_mul(g, gbraid_inverse(g)) == gbraid_identity(3, RATIONAL, 2)

    def test_braid_relation(self):
        scheme = inverse_scheme(2, 5)
        g_a = gbraid_from_braid(parse_braid_word("1 2 1", 3), scheme)
        g_b = gbraid_from_braid(parse_braid_word("2 1 2", 3), scheme)
        assert g_a == g_b

    def test_component_products_count(self):
        scheme = inverse_scheme(2, 5)
        g = gbraid_from_braid(TREFOIL, scheme)
        assert len(component_products(g)) == 1
        g = gbraid_from_braid(BraidWord(3), scheme)
        assert len(component_products(g)) == 3


class TestLabelSchemes:
    def test_compatibility_all_rules(self):
        for scheme in (
            inverse_scheme(2, 3),
            t_inverse_scheme(2, 3),
            conjugated_u_scheme(2, 3),
        ):
            scheme.verify_compatibility(4)

    def test_unknown_rule(self):
        with pytest.raises(RelationViolated):
            LabelScheme("WAT", 2, seed=1)

    def test_conjugated_u_requires_u(self):
        with pytest.raises(RelationViolated):
            LabelScheme("CONJUGATED_U", 2, seed=1)

    def test_t_inverse_b_value(self):
        scheme = t_inverse_scheme(2, 8)
        for s in range(1, 6):
            a = scheme.a(s)
            assert scheme.b(s) == (a**-1).scale(T)

    def test_scheme_equals_fresh_twin_after_use(self):
        w = BraidWord(5, (1, -2, 3, -4, 2))
        for make in SCHEMES.values():
            scheme = make(5)
            gbraid_from_braid(w, scheme)
            twin = make(5)
            assert scheme == twin
            assert hash(scheme) == hash(twin)
            assert [(scheme.a(s), scheme.b(s)) for s in range(1, 5)] == [
                (twin.a(s), twin.b(s)) for s in range(1, 5)
            ]

    def test_verify_compatibility_checks_each_new_pair(self):
        # Every rule is compatible by construction, so a scheme that breaks
        # a_2 b_2 = b_3 a_3 has to override b.
        class BrokenAtThree(LabelScheme):
            def b(self, s):
                label = super().b(s)
                return label.scale(2) if s == 3 else label

        rng = random.Random(3)
        matrices = tuple(random_invertible_matrix(2, rng) for _ in range(3))
        scheme = BrokenAtThree("INVERSE", 2, matrices=matrices)
        scheme.verify_compatibility(2)
        for _ in range(2):
            with pytest.raises(RelationViolated):
                scheme.verify_compatibility(3)
        with pytest.raises(RelationViolated):
            gbraid_from_braid(BraidWord(4, (1,)), scheme)


    def test_inverse_labels_inverted_once(self, monkeypatch):
        w = BraidWord(4, (-1, 2, -3, -1, -2, 3, -3))
        calls = []

        def counting(a):
            calls.append(a)
            return mat_inverse(a)

        monkeypatch.setattr(invariants, "mat_inverse", counting)
        for make in SCHEMES.values():
            scheme = make(9)
            first = gbraid_from_braid(w, scheme)
            calls.clear()
            assert gbraid_from_braid(w, scheme) == first
            assert calls == []
            for s in (1, 2, 3):
                b_inv, a_inv = scheme.inverse_labels(s)
                assert b_inv * scheme.b(s) == scheme.a(s) * a_inv == RingMatrix.identity(
                    scheme.ring, 2
                )


def closed_form_b(scheme: LabelScheme, u: RingMatrix, s: int) -> RingMatrix:
    """b_s = P u P^-1 a_s^-1 with P = a_{s-1} ... a_1, built afresh."""
    prefix = RingMatrix.identity(scheme.ring, scheme.m)
    for r in range(s - 1, 0, -1):
        prefix = prefix * scheme.a(r)
    return prefix * u * mat_inverse(prefix) * mat_inverse(scheme.a(s))


class TestLabelRecurrenceOracle:
    # The u each rule stands for, written out here rather than read back.
    RULE_U = {
        "INVERSE": lambda seed: RingMatrix.identity(RATIONAL, 2),
        "T_INVERSE": lambda seed: RingMatrix.scalar(LAURENT, 2, T),
        "CONJUGATED_U": lambda seed: random_invertible_matrix(2, random.Random(seed)),
        "CONJUGATED_U scalar": lambda seed: RingMatrix.scalar(RATIONAL, 2, Fraction(3)),
    }
    MAKE = dict(SCHEMES, **{"CONJUGATED_U scalar": lambda seed: conjugated_u_scheme(2, seed)})

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(sorted(RULE_U)),
        st.integers(0, 1 << 16),
        st.permutations(range(1, 8)),
    )
    def test_labels_equal_closed_form(self, rule, seed, order):
        # Indices are asked for in any order; the recurrence fills them in
        # index order either way.
        scheme, u = self.MAKE[rule](seed), self.RULE_U[rule](seed)
        ident = RingMatrix.identity(scheme.ring, 2)
        for s in order:
            a, b = scheme.a(s), scheme.b(s)
            b_inv, a_inv = scheme.inverse_labels(s)
            assert b == closed_form_b(scheme, u, s)
            assert b * b_inv == a * a_inv == ident


class TestFoldOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(SCHEMES)),
        st.integers(0, 1 << 16),
        st.lists(braid_words(), min_size=1, max_size=3),
    )
    def test_fold_matches_letter_by_letter_product(self, rule, seed, words):
        # One scheme serves every word, so later words read its cache; the
        # oracle uses a fresh twin with an empty cache.
        scheme = SCHEMES[rule](seed)
        for w in words:
            assert gbraid_from_braid(w, scheme) == letter_by_letter(w, replace(scheme))


class TestCharpolyClass:
    def test_markov_suite(self):
        fn = invariant_function("charpoly-class", 2, 1, 31)
        report = markov_invariance_suite(fn, TREFOIL, trials=6, seed=2)
        assert report.passed

    def test_t_two(self):
        fn = invariant_function("charpoly-class", 2, 2, 31)
        report = markov_invariance_suite(fn, FIGURE_EIGHT, trials=4, seed=3)
        assert report.passed

    def test_unknot_agreement(self):
        fn = invariant_function("charpoly-class", 2, 1, 31)
        assert fn(BraidWord(1)) == fn(BraidWord(2, (1,))) == fn(BraidWord(3, (1, 2)))

    def test_sorted_multiset(self):
        scheme = inverse_scheme(2, 4)
        value = charpoly_class_invariant(BraidWord(3), scheme, 1)
        assert len(value) == 3
        assert list(value) == sorted(value)


class TestCharpolyFamily:
    def test_requires_t_inverse(self):
        with pytest.raises(RelationViolated):
            charpoly_family_invariant(TREFOIL, inverse_scheme(2, 1), 1)

    def test_markov_suite(self):
        fn = invariant_function("charpoly-family", 2, 1, 31)
        report = markov_invariance_suite(fn, TREFOIL, trials=6, seed=5)
        assert report.passed

    def test_leading_entry_normalized(self):
        scheme = t_inverse_scheme(2, 6)
        for w in (TREFOIL, FIGURE_EIGHT):
            family = charpoly_family_invariant(w, scheme, 1)
            assert len(family) == 2


class TestGroupTrace:
    def test_requires_conjugated_u(self):
        with pytest.raises(RelationViolated):
            group_trace_invariant(TREFOIL, inverse_scheme(2, 1))

    def test_scalar_trace_condition(self):
        scheme = conjugated_u_scheme(2, 12)
        # u = 3 I gives tr(u x) = 3 tr(x) and tr(u^-1 x) = tr(x) / 3.
        value = group_trace_invariant(TREFOIL, scheme)
        assert isinstance(value, Fraction)

    def test_non_scalar_u_fails(self):
        u = RingMatrix(RATIONAL, [[2, 0], [0, 3]])
        scheme = LabelScheme("CONJUGATED_U", 2, seed=1, u=u)
        with pytest.raises(TraceConditionFailed):
            group_trace_invariant(TREFOIL, scheme)

    def test_equal_diagonal_non_scalar_u_fails(self):
        # tr(u x) = 3 tr(x) + x[1][0]: the diagonal alone does not decide.
        u = RingMatrix(RATIONAL, [[3, 1], [0, 3]])
        scheme = LabelScheme("CONJUGATED_U", 2, seed=1, u=u)
        with pytest.raises(TraceConditionFailed):
            group_trace_invariant(TREFOIL, scheme)

    def test_markov_suite(self):
        fn = invariant_function("group-trace", 2, 1, 31)
        report = markov_invariance_suite(fn, TREFOIL, trials=6, seed=7)
        assert report.passed

    def test_unknot_agreement(self):
        fn = invariant_function("group-trace", 2, 1, 31)
        assert fn(BraidWord(1)) == fn(BraidWord(2, (1,)))


class TestTensorTrace:
    def test_markov_suite(self):
        fn = invariant_function("tensor-trace", 2, 1, 31)
        report = markov_invariance_suite(fn, TREFOIL, trials=6, seed=11)
        assert report.passed

    def test_unknot_agreement(self):
        fn = invariant_function("tensor-trace", 2, 1, 31)
        assert fn(BraidWord(1)) == fn(BraidWord(2, (1,))) == fn(BraidWord(3, (1, 2)))

    def test_corrupted_invariant_fails(self):
        t = standard_tensor(2, 31)
        from braidforge.tensors import tensor_rep_trace

        def corrupted(w):
            # Raw trace with the stabilization prefactor omitted.
            return tensor_rep_trace(t, w)

        report = markov_invariance_suite(corrupted, TREFOIL, trials=8, seed=13)
        assert not report.passed

    def test_methods_agree_through_invariant(self):
        t = standard_tensor(2, 9)
        for w in (TREFOIL, FIGURE_EIGHT):
            assert tensor_trace_invariant(t, w, "dense") == tensor_trace_invariant(
                t, w, "slots"
            )

    @pytest.mark.parametrize(
        "make, text, strands, expected",
        [
            ("pair", "1 1 1", 2, 2),
            ("pair", "", 2, 4),
            ("swap", "1 1 1", 2, 2),
            ("identity", "1 -1 1", 2, 2),
        ],
    )
    def test_rational_tensor(self, make, text, strands, expected):
        """The normalization over the rationals: V = 1/3 for the pair
        (a, 3 a^-1), whose partial-trace scalars are 3 and 1/3."""
        methods = ["auto", "contract", "dense"]
        if make == "pair":
            a = random_invertible_matrix(2, random.Random(3))
            tensor = tensor_from_matrix_pair(a, mat_inverse(a).scale(3))
            assert partial_trace_scalars(tensor) == (Fraction(3), Fraction(1, 3))
            methods.append("slots")
        elif make == "swap":
            tensor = swap_tensor(2, RATIONAL)
        else:
            tensor = identity_tensor(2, RATIONAL)
        w = parse_braid_word(text, strands)
        for method in methods:
            value = tensor_trace_invariant(tensor, w, method)
            assert type(value) is Fraction and value == expected


def simplicity_oracle(rep, t, max_len, psi_refinement=True) -> SimplicityVerdict:
    """simplicity_check with every monomial multiplied out from the identity."""
    blocks = {
        name: getattr(rep, name) for name in ("A", "A1", "B", "B1", "C", "C1", "D", "D1")
    }
    ident = RingMatrix.identity(rep.ring, rep.k)
    failures = []
    monomials = _shape_monomials(max_len, psi_refinement)
    for mono in monomials:
        mx = ident
        for letter in mono:
            mx = mx * blocks[letter]
        base = mx.trace()
        for gen in ("A", "A1"):
            if (Fraction((blocks[gen] * mx).trace() - base) / t).denominator != 1:
                failures.append((mono, gen))
    return SimplicityVerdict(not failures, len(monomials), tuple(failures))


def fractional_matrix(rng: random.Random) -> RingMatrix:
    return RingMatrix(
        RATIONAL,
        [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(2)]
         for _ in range(2)],
    )


def simplicity_reps() -> list:
    rng = random.Random(23)
    cases = [
        pytest.param(series_constructor(s, random_invertible_matrix(2, rng)), id=s)
        for s in ("I", "II", "III")
    ]
    return cases + [
        pytest.param(series_constructor("VI", (Fraction(3), Fraction(1, 2))), id="VI"),
        pytest.param(
            square_zero_rep(*(random_rational_matrix(1, rng) for _ in range(3))),
            id="square-zero",
        ),
        pytest.param(series_constructor("II", RingMatrix(RATIONAL, [[2]])), id="failing"),
        pytest.param(swap_block_rep(), id="swap"),
        # The series' blocks commute; unchecked random blocks with fractional
        # entries do not, so they catch a product taken in the wrong order.
        pytest.param(
            BlockRep.from_blocks(*(fractional_matrix(rng) for _ in range(4)), check=False),
            id="non-commuting",
        ),
    ]


class TestSimplicityOracle:
    """Prefix-shared products give the identity-started loop's exact verdict."""

    @pytest.mark.parametrize("rep", simplicity_reps())
    @pytest.mark.parametrize("t", [Fraction(1), Fraction(1, 2), Fraction(3)])
    def test_refined(self, rep, t):
        assert simplicity_check(rep, t, 6) == simplicity_oracle(rep, t, 6)

    @pytest.mark.parametrize("rep", simplicity_reps())
    @pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(2)])
    def test_unrefined(self, rep, t):
        verdict = simplicity_check(rep, t, 3, psi_refinement=False)
        assert verdict == simplicity_oracle(rep, t, 3, psi_refinement=False)

    def test_failing_rep_lists_failures_in_order(self):
        rep = series_constructor("II", RingMatrix(RATIONAL, [[2]]))
        verdict = simplicity_check(rep, Fraction(1), 4, psi_refinement=False)
        assert not verdict.passed and verdict.failures
        assert verdict == simplicity_oracle(rep, Fraction(1), 4, psi_refinement=False)


class TestSimplicityAndBracket:
    def test_swap_rep_passes(self):
        verdict = simplicity_check(swap_block_rep(), Fraction(1), 6)
        assert verdict.passed
        assert verdict.checked == 127

    def test_failing_rep(self):
        rep = series_constructor("II", RingMatrix(RATIONAL, [[2]]))
        verdict = simplicity_check(rep, Fraction(1), 4)
        assert not verdict.passed

    def test_bracket_requires_verdict(self):
        rep = series_constructor("II", RingMatrix(RATIONAL, [[2]]))
        with pytest.raises(SimplicityUnverified):
            bracket_invariant(rep, TREFOIL, Fraction(1))

    def test_bracket_verdict_checked_once_per_t(self, monkeypatch):
        calls = []

        def counting(rep, t, max_len):
            calls.append(t)
            return simplicity_check(rep, t, max_len)

        monkeypatch.setattr(presets, "simplicity_check", counting)
        presets._swap_bracket.cache_clear()
        try:
            fns = [invariant_function("bracket", 1, t, 3) for t in ("1", "1", "2", "1")]
        finally:
            presets._swap_bracket.cache_clear()
        assert calls == [Fraction(1), Fraction(2)]
        assert fns[0](TREFOIL) == fns[1](TREFOIL) == fns[3](TREFOIL)
        # The cached verdict still gates: the swap representation fails at t = 2.
        with pytest.raises(SimplicityUnverified):
            fns[2](TREFOIL)

    def test_bracket_markov_suite(self):
        fn = invariant_function("bracket", 1, 1, 31)
        report = markov_invariance_suite(fn, TREFOIL, trials=6, seed=17)
        assert report.passed

    def test_bracket_conjugation_exact(self):
        rep = swap_block_rep()
        verdict = simplicity_check(rep, Fraction(1), 4)
        base = bracket_invariant(rep, FIGURE_EIGHT, Fraction(1), verdict)
        from braidforge.braids import Conjugate, markov_move

        gamma = BraidWord(3, (2, -1))
        moved = markov_move(FIGURE_EIGHT, Conjugate(gamma))
        other = bracket_invariant(rep, moved, Fraction(1), verdict)
        assert base.value == other.value

    def test_residue_congruence(self):
        assert BracketResidue(Fraction(1), Fraction(2)) == BracketResidue(
            Fraction(5), Fraction(2)
        )
        assert BracketResidue(Fraction(1), Fraction(2)) != BracketResidue(
            Fraction(2), Fraction(2)
        )
        assert BracketResidue(Fraction(1), Fraction(2)) != BracketResidue(
            Fraction(1), Fraction(4)
        )


@pytest.mark.parametrize("invariant", presets.INVARIANT_IDS)
@pytest.mark.parametrize("m", [0, -1])
def test_nonpositive_m_is_invalid_spec(invariant, m):
    with pytest.raises(InvalidSpec, match="m must be at least 1"):
        invariant_function(invariant, m, 1, 3)


class TestSuiteHarness:
    def test_determinism(self):
        fn = invariant_function("tensor-trace", 2, 1, 31)
        a = markov_invariance_suite(fn, TREFOIL, trials=3, seed=1)
        b = markov_invariance_suite(fn, TREFOIL, trials=3, seed=1)
        assert a == b

    def test_base_value_reported(self):
        fn = invariant_function("tensor-trace", 2, 1, 31)
        report = markov_invariance_suite(fn, TREFOIL, trials=1, seed=1)
        assert report.base_value == fn(TREFOIL)


class TestPermutationOnlyDependence:
    def test_constant_labels_see_only_permutation(self):
        # With a constant a-sequence, the charpoly-class value can only
        # depend on the underlying permutation's cycle structure.
        rng = random.Random(41)
        a = random_invertible_matrix(2, rng)
        scheme = LabelScheme("INVERSE", 2, constant=a)
        from braidforge.braids import underlying_permutation

        groups = {}
        for _ in range(12):
            w = random_braid_word(rng, max_strands=3, max_letters=5)
            w = BraidWord(3, w.letters) if w.strands <= 3 else w
            key = underlying_permutation(w).images
            groups.setdefault(key, []).append(
                charpoly_class_invariant(w, scheme, 1)
            )
        for values in groups.values():
            assert all(v == values[0] for v in values)


def test_value_to_jsonable():
    assert value_to_jsonable(Fraction(3, 2)) == "3/2"
    assert value_to_jsonable(T + 1) == "1 + 1*T^1"
    assert value_to_jsonable([Fraction(1), [T]]) == ["1", ["1*T^1"]]
    res = BracketResidue(Fraction(5), Fraction(2))
    assert value_to_jsonable(res) == {"residue": "5", "modulus": "2"}
