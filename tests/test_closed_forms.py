"""Closed forms in the closure's component count c, as oracles for the pipelines.

Every configuration the presets build gives a value that depends only on c:
the tensor and group traces read m^c, each component's characteristic
polynomial is (X - 1)^m, and the swap bracket is even.  These tests count c
from the word directly, sharing no route, fold or factoring with any
pipeline, so each pins its pipeline's output exactly.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from braidforge.braids import BraidWord
from braidforge.invariants import BracketResidue
from braidforge.presets import invariant_function


def component_count(w: BraidWord) -> int:
    """Cycles of the permutation that follows each strand through the word."""
    at = list(range(w.strands))  # at[p]: the strand now at position p
    for k in w.letters:
        i = abs(k)
        at[i - 1], at[i] = at[i], at[i - 1]
    ends = {strand: p for p, strand in enumerate(at)}
    seen, cycles = set(), 0
    for start in range(w.strands):
        if start not in seen:
            cycles += 1
            s = start
            while s not in seen:
                seen.add(s)
                s = ends[s]
    return cycles


def x_minus_one(m: int) -> tuple[int, ...]:
    """The coefficients of (X - 1)^m, ascending from X^0."""
    return tuple(math.comb(m, k) * (-1) ** (m - k) for k in range(m + 1))


@st.composite
def words(draw, max_strands=5, max_letters=8):
    strands = draw(st.integers(1, max_strands))
    if strands == 1:
        return BraidWord(1)
    letter = st.builds(
        lambda i, sign: i * sign, st.integers(1, strands - 1), st.sampled_from((1, -1))
    )
    return BraidWord(strands, tuple(draw(st.lists(letter, max_size=max_letters))))


m_values = st.integers(1, 3)
seeds = st.integers(0, 1 << 20)


class TestClosedForms:
    def test_component_count(self):
        assert component_count(BraidWord(3)) == 3
        assert component_count(BraidWord(2, (1, 1))) == 2
        assert component_count(BraidWord(3, (1, -2, 1, -2))) == 1

    @settings(max_examples=40, deadline=None)
    @given(m_values, seeds, words())
    def test_tensor_trace_is_m_to_the_c(self, m, seed, w):
        assert invariant_function("tensor-trace", m, 1, seed)(w) == m ** component_count(w)

    @settings(max_examples=40, deadline=None)
    @given(m_values, seeds, words())
    def test_group_trace_is_m_to_the_c(self, m, seed, w):
        assert invariant_function("group-trace", m, 1, seed)(w) == m ** component_count(w)

    @settings(max_examples=40, deadline=None)
    @given(m_values, seeds, st.integers(1, 3), words())
    def test_charpoly_class_is_x_minus_one_per_component(self, m, seed, t, w):
        value = invariant_function("charpoly-class", m, t, seed)(w)
        assert value == (x_minus_one(m),) * component_count(w)

    @settings(max_examples=40, deadline=None)
    @given(m_values, seeds, st.integers(1, 2), words())
    def test_charpoly_family_is_the_c_th_power(self, m, seed, t, w):
        value = invariant_function("charpoly-family", m, t, seed)(w)
        c = component_count(w)
        assert value == [x**c for x in x_minus_one(m)[:m]]

    @settings(max_examples=40, deadline=None)
    @given(words(max_strands=8, max_letters=12))
    def test_swap_bracket_is_zero_mod_two(self, w):
        value = invariant_function("bracket", 1, 1, 0)(w)
        assert value == BracketResidue(Fraction(0), Fraction(2))
