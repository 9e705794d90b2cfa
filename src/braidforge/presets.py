"""Ready-made invariant pipelines built from seeded random parameters.

These helpers wire the standard ingredient choices used by the CLI and the
verification suites: a random rational a with b = T * a^-1 (a inverted over
the rationals) for the tensor pipeline, seeded label schemes for the G-braid
pipelines, and the swap block representation for the bracket pipeline.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .blockreps import BlockRep, series_constructor
from .errors import InvalidSpec, ParseError
from .invariants import (
    SIMPLICITY_MAX_LEN,
    LabelScheme,
    bracket_invariant,
    charpoly_class_invariant,
    charpoly_family_invariant,
    group_trace_invariant,
    simplicity_check,
    tensor_trace_invariant,
)
from .matrix import RingMatrix, mat_inverse, random_invertible_matrix
from .rings import LAURENT, RATIONAL, LaurentPoly
from .tensors import BraidTensor, tensor_from_matrix_pair

INVARIANT_IDS = (
    "tensor-trace",
    "charpoly-class",
    "charpoly-family",
    "group-trace",
    "bracket",
)


def seeded_matrix(m: int, seed: int) -> RingMatrix:
    return random_invertible_matrix(m, random.Random(seed))


def standard_tensor(m: int, seed: int) -> BraidTensor:
    """The tensor from the pair (a, T * a^-1) for a seeded random a in GL_m(Q)."""
    a = seeded_matrix(m, seed)
    b = mat_inverse(a).to_ring(LAURENT).scale(LaurentPoly.var())
    return tensor_from_matrix_pair(a.to_ring(LAURENT), b)


def inverse_scheme(m: int, seed: int) -> LabelScheme:
    return LabelScheme(rule="INVERSE", m=m, seed=seed)


def t_inverse_scheme(m: int, seed: int) -> LabelScheme:
    return LabelScheme(rule="T_INVERSE", m=m, seed=seed)


def conjugated_u_scheme(m: int, seed: int, lam: Fraction = Fraction(3)) -> LabelScheme:
    u = RingMatrix.scalar(RATIONAL, m, Fraction(lam))
    return LabelScheme(rule="CONJUGATED_U", m=m, seed=seed, u=u)


def swap_block_rep() -> BlockRep:
    """Series II with B = [1]: the block operator is the 2 x 2 swap."""
    return series_constructor("II", RingMatrix(RATIONAL, [[1]]))


@lru_cache(maxsize=64)
def _swap_bracket(t: Fraction):
    """The swap representation and its simplicity verdict at t, checked once
    per t: neither depends on anything else."""
    rep = swap_block_rep()
    return rep, simplicity_check(rep, t, SIMPLICITY_MAX_LEN)


def _read_t(t, read, kind: str):
    try:
        return read(t)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"t must be {kind}, got {t!r}") from None


def _power(t) -> int:
    return _read_t(str(t), int, "an integer")


def invariant_function(invariant: str, m: int, t, seed: int):
    """A callable BraidWord -> value for the named invariant pipeline."""
    if m < 1:
        raise InvalidSpec(f"m must be at least 1, got {m}")
    if invariant == "tensor-trace":
        tensor = standard_tensor(m, seed)
        return lambda w: tensor_trace_invariant(tensor, w)
    if invariant == "charpoly-class":
        scheme, power = inverse_scheme(m, seed), _power(t)
        return lambda w: charpoly_class_invariant(w, scheme, power)
    if invariant == "charpoly-family":
        scheme, power = t_inverse_scheme(m, seed), _power(t)
        return lambda w: charpoly_family_invariant(w, scheme, power)
    if invariant == "group-trace":
        scheme = conjugated_u_scheme(m, seed)
        return lambda w: group_trace_invariant(w, scheme)
    if invariant == "bracket":
        t = _read_t(t, Fraction, "a rational number")
        rep, verdict = _swap_bracket(t)
        return lambda w: bracket_invariant(rep, w, t, verdict=verdict)
    raise ParseError(f"unknown invariant: {invariant}")


FIXTURES: tuple[tuple[str, int, str], ...] = (
    ("unknot-b1", 1, ""),
    ("unknot-b2", 2, "1"),
    ("hopf", 2, "1 1"),
    ("trefoil", 2, "1 1 1"),
    ("figure-eight", 3, "1 -2 1 -2"),
)
