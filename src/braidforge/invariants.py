"""Oriented-link invariants computed from braid closures.

Every pipeline here follows the same pattern: lift a braid word to labeled
strand data (a G-braid, a tensor representation, or a block representation),
extract conjugation-invariant quantities per closure component, and normalize
so the result is unchanged by stabilization.  Invariance is always checked by
exact equality (or exact congruence, for the bracket) under random Markov
moves; see markov_invariance_suite.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .blockreps import BlockRep, rep_from_word
from .braids import (
    BraidWord,
    Permutation,
    cycle_products,
    exponent_sum,
    fold_labels,
    random_markov_perturbation,
    underlying_permutation,
)
from .errors import (
    DimensionMismatch,
    InvalidSpec,
    RelationViolated,
    SimplicityUnverified,
    TraceConditionFailed,
)
from .matrix import RingMatrix, char_poly, mat_inverse, random_invertible_matrix
from .rings import LAURENT, RATIONAL, LaurentPoly, fraction_sqrt
from .tensors import BraidTensor, partial_trace_scalars, tensor_rep_trace

# -- G-braids ---------------------------------------------------------------


@dataclass(frozen=True)
class GBraid:
    """A permutation with one group label per strand start position.

    labels[j-1] is the group element attached to the strand running from top
    position j to bottom position perm(j).
    """

    strands: int
    perm: Permutation
    labels: tuple[RingMatrix, ...]

    def __post_init__(self):
        if self.perm.size != self.strands or len(self.labels) != self.strands:
            raise DimensionMismatch("permutation and label count must match strands")


@dataclass(frozen=True)
class LabelScheme:
    """A rule attaching label pairs (a_s, b_s) to the braid generators.

    rule INVERSE sets b_s = a_s^-1; T_INVERSE sets b_s = T * a_s^-1 over the
    Laurent ring; CONJUGATED_U sets
    b_s = (a_{s-1} ... a_1) u (a_{s-1} ... a_1)^-1 a_s^-1 for a chosen
    invertible u.  Every rule satisfies the compatibility relation
    a_i b_i = b_{i+1} a_{i+1}, checked by verify_compatibility.

    A scheme is immutable, so _cache (outside equality and hash) keeps a_s
    as given or sampled, b_s, a_s^-1 and b_s^-1 (each inverted once), and
    the pairs verified.  Under T_INVERSE it keeps b_s / T and lifts a_s and b_s
    to the Laurent ring per call: a constant Laurent matrix takes several
    times the memory of a rational one.  The inverses are kept in the
    scheme's ring, one pair per index a word uses.
    """

    rule: str
    m: int
    matrices: tuple[RingMatrix, ...] | None = None
    constant: RingMatrix | None = None
    seed: int | None = None
    u: RingMatrix | None = None
    # "verified" -> k such that every pair below k passed.
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    RULES = ("INVERSE", "T_INVERSE", "CONJUGATED_U")

    def __post_init__(self):
        if self.rule not in self.RULES:
            raise RelationViolated(f"unknown label rule: {self.rule}")
        if self.rule == "CONJUGATED_U" and self.u is None:
            raise RelationViolated("CONJUGATED_U requires the element u")
        if self.matrices is None and self.constant is None and self.seed is None:
            raise RelationViolated("no source for the a_s sequence")

    @property
    def ring(self):
        return LAURENT if self.rule == "T_INVERSE" else RATIONAL

    def _source(self, s: int) -> RingMatrix:
        """a_s as given or sampled, before conversion to the rule's ring."""
        source = self._cache.get(("a", s))
        if source is None:
            if self.matrices is not None:
                if not 1 <= s <= len(self.matrices):
                    raise DimensionMismatch(f"no matrix a_{s} in the explicit list")
                source = self.matrices[s - 1]
            elif self.constant is not None:
                source = self.constant
            else:
                rng = random.Random(self.seed * 1_000_003 + s)
                source = random_invertible_matrix(self.m, rng)
            self._cache[("a", s)] = source
        return source

    def a(self, s: int) -> RingMatrix:
        return self._source(s).to_ring(self.ring)

    def b(self, s: int) -> RingMatrix:
        stored = self._cache.get(("b", s))
        if stored is None:
            if self.rule == "T_INVERSE":
                stored = mat_inverse(self._source(s))
            elif self.rule == "INVERSE":
                stored = self._a_inverse(s)
            else:
                prefix = RingMatrix.identity(self.ring, self.m)
                for r in range(s - 1, 0, -1):
                    prefix = prefix * self.a(r)
                u = self.u.to_ring(self.ring)
                stored = prefix * u * mat_inverse(prefix) * self._a_inverse(s)
            self._cache[("b", s)] = stored
        if self.rule == "T_INVERSE":
            return stored.to_ring(LAURENT).scale(LaurentPoly.var())
        return stored

    def _a_inverse(self, s: int) -> RingMatrix:
        inv = self._cache.get(("a^-1", s))
        if inv is None:
            inv = self._cache[("a^-1", s)] = mat_inverse(self.a(s))
        return inv

    def inverse_labels(self, s: int) -> tuple[RingMatrix, RingMatrix]:
        """(b_s^-1, a_s^-1), the labels of t_s^-1, inverted once per index."""
        b_inv = self._cache.get(("b^-1", s))
        if b_inv is None:
            b_inv = self._cache[("b^-1", s)] = mat_inverse(self.b(s))
        return b_inv, self._a_inverse(s)

    def verify_compatibility(self, max_index: int):
        """Check a_i b_i = b_{i+1} a_{i+1} for every consecutive pair used."""
        verified = self._cache.get("verified", 1)
        for i in range(verified, max_index):
            if self.a(i) * self.b(i) != self.b(i + 1) * self.a(i + 1):
                raise RelationViolated(
                    f"label scheme fails a_{i} b_{i} = b_{i + 1} a_{i + 1}"
                )
        self._cache["verified"] = max(verified, max_index)


def gbraid_from_braid(w: BraidWord, scheme: LabelScheme) -> GBraid:
    """The image of a braid word under t_i -> (swap(i, i+1); a_i, b_i),
    t_i^-1 -> (swap(i, i+1); b_i^-1, a_i^-1)."""
    n = w.strands
    if n >= 3:
        scheme.verify_compatibility(n - 1)

    def labels_of(letter):
        if letter > 0:
            return scheme.a(letter), scheme.b(letter)
        return scheme.inverse_labels(-letter)

    identity = RingMatrix.identity(scheme.ring, scheme.m)
    labels = fold_labels(w, identity, labels_of)
    return GBraid(n, underlying_permutation(w), tuple(labels))


def component_products(g: GBraid) -> list[RingMatrix]:
    """One label product per closure component, following each cycle from its
    minimal position; defined up to conjugacy."""
    return cycle_products(g.perm, g.labels)


# -- characteristic polynomial invariants -----------------------------------


def charpoly_class_invariant(
    w: BraidWord, scheme: LabelScheme, t: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Sorted multiset of characteristic polynomials of the t-th powers of
    the component products."""
    g = gbraid_from_braid(w, scheme)
    polys = [tuple(char_poly(p**t)) for p in component_products(g)]
    return tuple(sorted(polys))


def charpoly_family_invariant(
    w: BraidWord, scheme: LabelScheme, t: int
) -> list[LaurentPoly]:
    """The list P_0..P_{m-1}: for each coefficient slot l, the product over
    components of the X^l coefficient of the characteristic polynomial of the
    t-th power of the component product, scaled by T^(t(l-m)*exp)."""
    if scheme.rule != "T_INVERSE":
        raise RelationViolated("charpoly_family_invariant needs the T_INVERSE rule")
    g = gbraid_from_braid(w, scheme)
    m = scheme.m
    exp = exponent_sum(w)
    coeff_lists = [char_poly(p**t) for p in component_products(g)]
    out = []
    for l in range(m):
        value = LaurentPoly.monomial(1, t * (l - m) * exp)
        for coeffs in coeff_lists:
            value = value * coeffs[l]
        out.append(value)
    return out


# -- group trace invariant --------------------------------------------------


def group_trace_invariant(w: BraidWord, scheme: LabelScheme) -> Fraction:
    """The normalized product of component-product traces.

    Requires the CONJUGATED_U rule.  tr(u x) = lam1 tr(x) for all x holds
    exactly when u = lam1 I (take x = E_ij), and then lam2 = 1 / lam1 for
    u^-1.  V is the principal (nonnegative) exact square root of
    lam2 / lam1, and the result is
    (V * lam1)^-(n-1) * V^exp * prod of component traces.
    """
    if scheme.rule != "CONJUGATED_U":
        raise RelationViolated("group_trace_invariant needs the CONJUGATED_U rule")
    u = scheme.u.to_ring(RATIONAL)
    lam1 = u[0, 0]
    if u != RingMatrix.scalar(RATIONAL, u.rows, lam1):
        raise TraceConditionFailed("tr(u x) = lam tr(x) needs u = lam I")
    if not lam1:
        raise TraceConditionFailed("trace scalars must be nonzero")
    lam2 = 1 / lam1
    v = fraction_sqrt(lam2 / lam1)
    g = gbraid_from_braid(w, scheme)
    exp = exponent_sum(w)
    n = w.strands
    k_n = (v * lam1) ** (-(n - 1))
    value = k_n * v**exp
    for p in component_products(g):
        value = value * p.trace()
    return value


# -- tensor trace invariant -------------------------------------------------


def tensor_trace_invariant(T: BraidTensor, w: BraidWord, method: str = "auto"):
    """The normalized trace of the braid's tensor representation.

    With partial-trace scalars (a1, a2) and V = T.ring.sqrt(a2 / a1), the
    value is (V * a1)^-(n-1) * V^exp * trace (Turaev's enhanced Yang-Baxter
    normalization), one formula over both rings.  NoExactRoot is raised
    when a2 / a1 has no exact square root in the ring.
    """
    a1, a2 = partial_trace_scalars(T)
    ring = T.ring
    v = ring.sqrt(a2 * ring.unit_inverse(a1))
    prefactor = ring.unit_inverse(v * a1) ** (w.strands - 1) * v ** exponent_sum(w)
    return prefactor * tensor_rep_trace(T, w, method)


# -- bracket invariant ------------------------------------------------------


@dataclass(frozen=True)
class BracketResidue:
    """A scalar considered modulo 2t; equality is exact congruence."""

    value: Fraction
    modulus: Fraction

    def __eq__(self, other):
        if not isinstance(other, BracketResidue):
            return NotImplemented
        if self.modulus != other.modulus:
            return False
        q = (self.value - other.value) / self.modulus
        return q.denominator == 1

    def __hash__(self):
        return hash(self.modulus)


# The monomial length up to which the bracket's simplicity check runs.
SIMPLICITY_MAX_LEN = 6


@dataclass(frozen=True)
class SimplicityVerdict:
    """Outcome of the bounded simplicity check; PASS is a certificate for the
    enumerated monomials only, not a proof."""

    passed: bool
    checked: int
    failures: tuple[tuple[tuple[str, ...], str], ...] = ()


def _shape_monomials(max_len: int, psi_refinement: bool):
    """All monomials of the two admissible shapes, up to max_len letters.

    Shape one: the empty monomial or any word in D, D1.  Shape two:
    G1 S1 M S2 G2 with G1, G2 words in D, D1; S1 one of C, C1; S2 one of
    B, B1; and M any word with equally many B-type and C-type letters.  The
    prefix refinement requires every proper prefix to contain at least as
    many B-type letters as C-type ones, which shape two's leading C always
    violates; with the refinement on, only shape one survives.
    """
    d_letters = ("D", "D1")
    seen: set[tuple[str, ...]] = set()

    def d_words(max_n: int):
        words: list[tuple[str, ...]] = [()]
        frontier: list[tuple[str, ...]] = [()]
        for _ in range(max_n):
            frontier = [wd + (x,) for wd in frontier for x in d_letters]
            words.extend(frontier)
        return words

    for wd in d_words(max_len):
        seen.add(wd)
    if not psi_refinement:
        all_letters = ("A", "A1", "B", "B1", "C", "C1", "D", "D1")

        def balanced_words(max_n: int):
            out = [()]
            frontier = [()]
            for _ in range(max_n):
                frontier = [wd + (x,) for wd in frontier for x in all_letters]
                out.extend(frontier)
            return [
                wd
                for wd in out
                if sum(x in ("B", "B1") for x in wd)
                == sum(x in ("C", "C1") for x in wd)
            ]

        for s1 in ("C", "C1"):
            for s2 in ("B", "B1"):
                core_budget = max_len - 2
                if core_budget < 0:
                    continue
                for mid in balanced_words(core_budget):
                    rest = core_budget - len(mid)
                    for g1 in d_words(rest):
                        for g2 in d_words(rest - len(g1)):
                            seen.add(g1 + (s1,) + mid + (s2,) + g2)
    return sorted(seen)


def simplicity_check(
    rep: BlockRep,
    t: Fraction,
    max_len: int,
    psi_refinement: bool = True,
) -> SimplicityVerdict:
    """Bounded check of the simplicity conditions on a block representation.

    For every admissible monomial X up to max_len letters, both
    tr(A X) - tr(X) and tr(A1 X) - tr(X) must be integer multiples of t.
    tr(G X) is read as the sum over i of row i of G times column i of X,
    without forming G X.
    """
    t = Fraction(t)
    if not t:
        raise InvalidSpec("t must be nonzero")
    blocks = {
        "A": rep.A,
        "A1": rep.A1,
        "B": rep.B,
        "B1": rep.B1,
        "C": rep.C,
        "C1": rep.C1,
        "D": rep.D,
        "D1": rep.D1,
    }
    # Each monomial's product is its longest proper prefix's times one block;
    # prefixes outside the enumeration are built on demand and kept too.
    products = {(letter,): m for letter, m in blocks.items()}
    products[()] = RingMatrix.identity(rep.ring, rep.k)

    def product(mono: tuple[str, ...]) -> RingMatrix:
        if mono not in products:
            products[mono] = product(mono[:-1]) * blocks[mono[-1]]
        return products[mono]

    zero = rep.ring.zero
    failures = []
    monomials = _shape_monomials(max_len, psi_refinement)
    for mono in monomials:
        mx = product(mono)
        base = mx.trace()
        cols = tuple(zip(*mx.entries))
        for gen in ("A", "A1"):
            pairs = zip(blocks[gen].entries, cols)
            tr_gx = sum((a * b for r, c in pairs for a, b in zip(r, c)), zero)
            q = RATIONAL.coerce(tr_gx - base) / t
            if q.denominator != 1:
                failures.append((mono, gen))
    return SimplicityVerdict(not failures, len(monomials), tuple(failures))


def bracket_invariant(
    rep: BlockRep,
    w: BraidWord,
    t: Fraction,
    verdict: SimplicityVerdict | None = None,
) -> BracketResidue:
    """The bracket S = 2 tr pi'(w) + exp (tr D1 - tr D) - n (tr D1 + tr D),
    declared modulo 2t; congruent values correspond to equal link invariants.

    Requires a representation certified by simplicity_check.  A verdict may
    be passed in to avoid re-running the enumeration; without one the check
    runs up to SIMPLICITY_MAX_LEN letters, the bound the CLI certifies.
    Traces are taken as rationals, so Laurent entries must be constants.
    """
    t = Fraction(t)
    if verdict is None:
        verdict = simplicity_check(rep, t, SIMPLICITY_MAX_LEN)
    if not verdict.passed:
        raise SimplicityUnverified(
            f"simplicity check failed on {len(verdict.failures)} monomials"
        )
    tr_word = RATIONAL.coerce(rep_from_word(rep, w).trace())
    tr_d = RATIONAL.coerce(rep.D.trace())
    tr_d1 = RATIONAL.coerce(rep.D1.trace())
    s = 2 * tr_word + exponent_sum(w) * (tr_d1 - tr_d) - w.strands * (tr_d1 + tr_d)
    return BracketResidue(s, 2 * t)


# -- Markov invariance harness ----------------------------------------------


@dataclass(frozen=True)
class SuiteReport:
    """Result of comparing an invariant across random Markov perturbations."""

    passed: bool
    trials: int
    base_value: object
    mismatches: tuple[tuple[int, object], ...] = ()


def markov_invariance_suite(
    invariant_fn,
    w: BraidWord,
    trials: int,
    seed: int,
    steps: int = 5,
) -> SuiteReport:
    """Evaluate invariant_fn on w and on seed-deterministic Markov
    perturbations; PASS iff every value equals the base value exactly."""
    base = invariant_fn(w)
    mismatches = []
    for trial in range(trials):
        trial_seed = seed * 7_919 + trial
        perturbed = random_markov_perturbation(w, steps, trial_seed)
        value = invariant_fn(perturbed)
        if value != base:
            mismatches.append((trial, value))
    return SuiteReport(not mismatches, trials, base, tuple(mismatches))


# -- reports ----------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """A serializable record of one invariant evaluation."""

    invariant: str
    value: object
    braid: dict
    parameters: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "invariant": self.invariant,
            "value": self.value,
            "braid": self.braid,
            "parameters": self.parameters,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)


def value_to_jsonable(value):
    """Render an invariant value with Laurent entries in canonical text."""
    if isinstance(value, LaurentPoly):
        return value.text()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, BracketResidue):
        return {"residue": str(value.value), "modulus": str(value.modulus)}
    if isinstance(value, (list, tuple)):
        return [value_to_jsonable(v) for v in value]
    return value
