"""Exact-arithmetic braid-group representations and oriented-link invariants.

The package is organized bottom-up: rings (rationals, Laurent polynomials),
matrix (exact linear algebra), braids (words, permutations, Markov moves),
blockreps (relation catalogs, block representations, operator pairs),
tensors (braid tensors and tensor representations), invariants (link
invariant pipelines and the Markov-invariance harness), presets (seeded
standard pipelines), and cli (the command-line front end).
"""

from .braids import (
    BraidWord,
    Conjugate,
    Destabilize,
    Permutation,
    Stabilize,
    closure_components,
    exponent_sum,
    markov_move,
    parse_braid_word,
    random_markov_perturbation,
    underlying_permutation,
)
from .blockreps import (
    BlockRep,
    PairOperators,
    burau_quadratic_check,
    burau_rep,
    check_relation_set,
    pair_to_block_rep,
    pair_to_triangle_rep,
    rep_from_word,
    series_blocks,
    series_constructor,
    type_I_pair,
    type_II_pair,
)
from .invariants import (
    BracketResidue,
    GBraid,
    InvariantReport,
    LabelScheme,
    bracket_invariant,
    charpoly_class_invariant,
    charpoly_family_invariant,
    component_products,
    gbraid_from_braid,
    group_trace_invariant,
    markov_invariance_suite,
    simplicity_check,
    tensor_trace_invariant,
)
from .matrix import RingMatrix, char_poly, kron, mat_det, mat_inverse
from .rings import LAURENT, RATIONAL, LaurentPoly, parse_laurent
from .tensors import (
    BraidTensor,
    SlotOperator,
    check_braid_equation,
    partial_trace_scalars,
    swap_tensor,
    identity_tensor,
    tensor_from_matrix_pair,
    tensor_rep_trace,
    tensor_to_matrix,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
