"""Block representations of the braid group and their relation catalogs.

The central object is a BlockRep: four k x k blocks (A, B, C, D) whose 2k x 2k
block operator [[A, B], [C, D]] is invertible and satisfies the braid-algebra
relation catalog.  Placing that operator on adjacent strand slots of an
nk-dimensional space yields matrices for the braid generators; negative
letters use the blocks (A1, B1, C1, D1) of the inverse operator.  A word's
matrix is never multiplied out densely: each generator is the identity
outside its 2k-wide band, so rep_from_word applies a letter as a banded
update of 2k columns.

Relation catalogs for the quotient algebras are stored as polynomial
identities in named slots and checked by direct matrix evaluation.  When
every slot matrix has a fraction-free form s*T^e*N (matrix.integer_form;
every rational matrix has one), the check runs on the integer matrices N:
each distinct monomial is one integer product, and a relation holds iff,
for each power of T, its terms at that power sum to the zero integer matrix
once denominators are cleared.  The block operator of a BlockRep with a
form is inverted over the integers the same way (integer_form_inverse).
Matrices with entries of mixed degree, such as Burau's 1 - T, keep their
ring's own arithmetic.  Catalog labels like "2.2(iii)" are stable
identifiers used in reports and by the CLI.

The module also constructs the classical series of such representations
(I, II, III, VI, and the square-zero family) and the mutually annihilating
operator pairs (types I and II) that generate the remaining series through
the triangle-algebra correspondence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul

from .braids import BraidWord
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidPolynomial,
    InvalidSpec,
    MissingSlot,
    NotNilpotent,
    PeriodicSpec,
    RelationViolated,
    SingularInput,
)
from .matrix import (
    IntegerMatrixForm,
    RingMatrix,
    integer_form,
    integer_form_inverse,
    mat_det,
    mat_inverse,
)
from .rings import LAURENT, RATIONAL, LaurentPoly

# -- relation catalogs ------------------------------------------------------

# Each relation is (label, [(coefficient, monomial as slot-name tuple), ...])
# and asserts that the signed sum of the monomial products is zero.
Relation = tuple[str, list[tuple[int, tuple[str, ...]]]]


def _commutators(prefix: str, slots: tuple[str, ...]) -> list[Relation]:
    out = []
    for i, a in enumerate(slots):
        for b in slots[i + 1 :]:
            out.append((f"{prefix}[{a}{b}={b}{a}]", [(1, (a, b)), (-1, (b, a))]))
    return out


BRAID_ALGEBRA_RELATIONS: list[Relation] = [
    ("2.2(i)", [(1, ("A", "A")), (1, ("B", "A", "C")), (-1, ("A",))]),
    ("2.2(ii)", [(1, ("D", "D")), (1, ("C", "D", "B")), (-1, ("D",))]),
    (
        "2.2(iii)",
        [(1, ("C", "B")), (-1, ("B", "C")), (-1, ("A", "D", "A")), (1, ("D", "A", "D"))],
    ),
    ("2.2(iv)", [(1, ("B", "A")), (-1, ("A", "B")), (-1, ("B", "A", "D"))]),
    ("2.2(v)", [(1, ("A", "C")), (-1, ("C", "A")), (-1, ("D", "A", "C"))]),
    ("2.2(vi)", [(1, ("D", "B")), (-1, ("B", "D")), (-1, ("A", "D", "B"))]),
    ("2.2(vii)", [(1, ("C", "D")), (-1, ("D", "C")), (-1, ("C", "D", "A"))]),
]

SEQUENCE_21_RELATIONS: list[Relation] = [
    ("2.1(i)", [(1, ("Ai", "Ai")), (1, ("Bi", "Aj", "Ci")), (-1, ("Ai",))]),
    ("2.1(ii)", [(1, ("Dj", "Dj")), (1, ("Cj", "Di", "Bj")), (-1, ("Dj",))]),
    ("2.1(iii)", [(1, ("Aj", "Ci")), (-1, ("Ci", "Ai")), (-1, ("Di", "Aj", "Ci"))]),
    ("2.1(iv)", [(1, ("Bi", "Aj")), (-1, ("Ai", "Bi")), (-1, ("Bi", "Aj", "Di"))]),
    (
        "2.1(v)",
        [
            (1, ("Ci", "Bi")),
            (-1, ("Bj", "Cj")),
            (-1, ("Aj", "Di", "Aj")),
            (1, ("Di", "Aj", "Di")),
        ],
    ),
    ("2.1(vi)", [(1, ("Cj", "Di")), (-1, ("Dj", "Cj")), (-1, ("Cj", "Di", "Aj"))]),
    ("2.1(vii)", [(1, ("Di", "Bj")), (-1, ("Bj", "Dj")), (-1, ("Aj", "Di", "Bj"))]),
]

PERIOD2_RELATIONS: list[Relation] = [
    ("2.3(i)", [(1, ("A1", "A1")), (1, ("B1", "A2", "C1")), (-1, ("A1",))]),
    ("2.3(ii)", [(1, ("A2", "A2")), (1, ("B2", "A1", "C2")), (-1, ("A2",))]),
    ("2.3(iii)", [(1, ("D2", "D2")), (1, ("C2", "D1", "B2")), (-1, ("D2",))]),
    ("2.3(iv)", [(1, ("D1", "D1")), (1, ("C1", "D2", "B1")), (-1, ("D1",))]),
    ("2.3(v)", [(1, ("D1", "B2")), (-1, ("B2", "D2")), (-1, ("A2", "D1", "B2"))]),
    ("2.3(vi)", [(1, ("C1", "D2")), (-1, ("D1", "C1")), (-1, ("C1", "D2", "A1"))]),
    ("2.3(vii)", [(1, ("A2", "C1")), (-1, ("C1", "A1")), (-1, ("D1", "A2", "C1"))]),
    ("2.3(viii)", [(1, ("A1", "C2")), (-1, ("C2", "A2")), (-1, ("D2", "A1", "C2"))]),
    ("2.3(ix)", [(1, ("B1", "A2")), (-1, ("A1", "B1")), (-1, ("B1", "A2", "D1"))]),
    ("2.3(x)", [(1, ("B2", "A1")), (-1, ("A2", "B2")), (-1, ("B2", "A1", "D2"))]),
    ("2.3(xi)", [(1, ("C2", "D1")), (-1, ("D2", "C2")), (-1, ("C2", "D1", "A2"))]),
    ("2.3(xii)", [(1, ("D2", "B1")), (-1, ("B1", "D1")), (-1, ("A1", "D2", "B1"))]),
    (
        "2.3(xiii)",
        [
            (1, ("C1", "B1")),
            (-1, ("B2", "C2")),
            (-1, ("A2", "D1", "A2")),
            (1, ("D1", "A2", "D1")),
        ],
    ),
    (
        "2.3(xiv)",
        [
            (1, ("C2", "B2")),
            (-1, ("B1", "C1")),
            (-1, ("A1", "D2", "A1")),
            (1, ("D2", "A1", "D2")),
        ],
    ),
]

TRIANGLE_RELATIONS: list[Relation] = [
    ("2.4(i)", [(1, ("y", "y")), (1, ("x", "y")), (-1, ("y",))]),
] + _commutators("2.4", ("x", "y"))

SIMPLIFIED_RELATIONS: list[Relation] = [
    ("2.7(i)", [(1, ("A", "A")), (1, ("B", "A")), (-1, ("A",))]),
    ("2.7(ii)", [(1, ("D", "D")), (1, ("D", "B")), (-1, ("D",))]),
    ("2.7(iii)", [(1, ("B", "A")), (-1, ("A", "B")), (-1, ("B", "A", "D"))]),
    ("2.7(iv)", [(1, ("D", "B")), (-1, ("B", "D")), (-1, ("A", "D", "B"))]),
    ("2.7(v)", [(1, ("D", "A"))]),
]

COMMUTATIVE_RELATIONS: list[Relation] = [
    ("2.8(i)", [(1, ("x", "x")), (1, ("x", "y", "z")), (-1, ("x",))]),
    ("2.8(ii)", [(1, ("t", "t")), (1, ("t", "y", "z")), (-1, ("t",))]),
    ("2.8(iii)", [(1, ("x", "z", "t"))]),
    ("2.8(iv)", [(1, ("x", "y", "t"))]),
] + _commutators("2.8", ("x", "y", "z", "t"))

SIMPLIFIED_COMMUTATIVE_RELATIONS: list[Relation] = [
    ("2.9(i)", [(1, ("x", "x")), (1, ("x", "y")), (-1, ("x",))]),
    ("2.9(ii)", [(1, ("t", "t")), (1, ("t", "y")), (-1, ("t",))]),
    ("2.9(iii)", [(1, ("x", "t"))]),
] + _commutators("2.9", ("x", "y", "t"))

AD_ZERO_RELATIONS: list[Relation] = [
    ("2.11(i)", [(1, ("A", "A")), (1, ("B", "A", "C")), (-1, ("A",))]),
    ("2.11(ii)", [(1, ("D", "D")), (1, ("C", "D", "B")), (-1, ("D",))]),
    ("2.11(iii)", [(1, ("C", "B")), (-1, ("B", "C"))]),
    ("2.11(iv)", [(1, ("A", "B")), (-1, ("B", "A"))]),
    ("2.11(v)", [(1, ("A", "C")), (-1, ("C", "A")), (-1, ("D", "A", "C"))]),
    ("2.11(vi)", [(1, ("C", "D")), (-1, ("D", "C")), (-1, ("C", "D", "A"))]),
    ("2.11(vii)", [(1, ("A", "D"))]),
]

RELATION_SETS: dict[str, list[Relation]] = {
    "BRAID_ALGEBRA": BRAID_ALGEBRA_RELATIONS,
    "SEQUENCE_21": SEQUENCE_21_RELATIONS,
    "PERIOD2": PERIOD2_RELATIONS,
    "TRIANGLE": TRIANGLE_RELATIONS,
    "SIMPLIFIED": SIMPLIFIED_RELATIONS,
    "COMMUTATIVE": COMMUTATIVE_RELATIONS,
    "SIMPLIFIED_COMMUTATIVE": SIMPLIFIED_COMMUTATIVE_RELATIONS,
    "AD_ZERO": AD_ZERO_RELATIONS,
}


def relation_set_slots(set_id: str) -> tuple[str, ...]:
    slots: list[str] = []
    for _, monomials in RELATION_SETS[set_id]:
        for _, mono in monomials:
            for s in mono:
                if s not in slots:
                    slots.append(s)
    return tuple(slots)


def check_relation_set(assignment: dict[str, RingMatrix], set_id: str) -> list[str]:
    """Labels of relations in the catalog that the assignment violates,
    in catalog order.

    When every slot matrix has an integer form s*T^e*N, the catalog is
    evaluated on the forms: each distinct monomial (and each of its
    prefixes) is one integer matrix product, computed once per call and
    not at all when a factor is zero.  A relation holds iff, for each
    exponent of T, its terms at that exponent, scaled by their
    coefficients with denominators cleared, sum to the zero integer
    matrix.  A slot without a form (entries of mixed degree) sends the
    whole assignment through its ring's arithmetic.
    """
    if set_id not in RELATION_SETS:
        raise MissingSlot(f"unknown relation set: {set_id}")
    slots = relation_set_slots(set_id)
    missing = [s for s in slots if s not in assignment]
    if missing:
        raise MissingSlot(f"assignment missing slots: {', '.join(missing)}")
    sizes = {assignment[s].rows for s in slots} | {assignment[s].cols for s in slots}
    if len(sizes) != 1:
        raise DimensionMismatch("all slot matrices must be square of equal size")
    first = assignment[slots[0]]
    for s in slots[1:]:
        first._same_ring(assignment[s])
    relations = RELATION_SETS[set_id]
    forms = {s: integer_form(assignment[s]) for s in slots}
    if None in forms.values():
        return _violated_in_ring(assignment, relations, first.ring, first.rows)
    return _violated_over_integers(forms, relations)


def _violated_over_integers(
    forms: dict[str, IntegerMatrixForm], relations: list[Relation]
) -> list[str]:
    products = {(s,): f for s, f in forms.items()}
    zero_slots = {s for s, f in forms.items() if f.matrix.is_zero()}

    def product(mono: tuple[str, ...]) -> IntegerMatrixForm:
        if mono not in products:
            products[mono] = product(mono[:-1]) * forms[mono[-1]]
        return products[mono]

    violated = []
    for label, monomials in relations:
        by_exp: dict[int, list[tuple[Fraction, tuple]]] = {}
        for coeff, mono in monomials:
            if not zero_slots.isdisjoint(mono):
                continue  # a zero factor: the term is zero, left uncomputed
            f = product(mono)
            by_exp.setdefault(f.exp, []).append((coeff * f.scale, f.matrix.entries))
        if any(_nonzero_combination(terms) for terms in by_exp.values()):
            violated.append(label)
    return violated


def _nonzero_combination(terms: list[tuple[Fraction, tuple]]) -> bool:
    """Whether sum(c * N) is nonzero, for rational c and integer matrices N:
    the c are brought to one denominator, which leaves an integer sum."""
    den = math.lcm(*(c.denominator for c, _ in terms))
    weights = [c.numerator * (den // c.denominator) for c, _ in terms]
    entries = zip(*(chain.from_iterable(rows) for _, rows in terms))
    return any(sum(map(mul, weights, column)) for column in entries)


def _violated_in_ring(
    assignment: dict[str, RingMatrix], relations: list[Relation], ring, n: int
) -> list[str]:
    violated = []
    for label, monomials in relations:
        total = RingMatrix.zeros(ring, n)
        for coeff, mono in monomials:
            term = assignment[mono[0]]
            for s in mono[1:]:
                term = term * assignment[s]
            total = total + term.scale(coeff)
        if not total.is_zero():
            violated.append(label)
    return violated


# -- block representations --------------------------------------------------


@dataclass(frozen=True)
class BlockRep:
    """The (A, B, C, D) block data of a generator, plus its inverse blocks."""

    k: int
    A: RingMatrix
    B: RingMatrix
    C: RingMatrix
    D: RingMatrix
    A1: RingMatrix
    B1: RingMatrix
    C1: RingMatrix
    D1: RingMatrix

    @classmethod
    def from_blocks(
        cls,
        A: RingMatrix,
        B: RingMatrix,
        C: RingMatrix,
        D: RingMatrix,
        check: bool = True,
    ) -> "BlockRep":
        k = A.rows
        for m in (A, B, C, D):
            if m.rows != k or m.cols != k:
                raise DimensionMismatch("blocks must be square matrices of equal size")
        if check:
            violated = check_relation_set(
                {"A": A, "B": B, "C": C, "D": D}, "BRAID_ALGEBRA"
            )
            if violated:
                raise RelationViolated(
                    f"blocks violate relations: {', '.join(violated)}"
                )
        op = block_operator(A, B, C, D)
        form = integer_form(op)
        try:
            if form is None:
                inv = mat_inverse(op)
            else:
                inv = integer_form_inverse(form, op.ring).to_matrix(op.ring)
        except Exception as exc:
            raise SingularInput(f"block operator is not invertible: {exc}") from exc
        return cls(
            k,
            A,
            B,
            C,
            D,
            inv.submatrix(0, 0, k, k),
            inv.submatrix(0, k, k, 2 * k),
            inv.submatrix(k, 0, 2 * k, k),
            inv.submatrix(k, k, 2 * k, 2 * k),
        )

    @property
    def ring(self):
        return self.A.ring

    def operator(self) -> RingMatrix:
        return block_operator(self.A, self.B, self.C, self.D)

    def inverse_operator(self) -> RingMatrix:
        return block_operator(self.A1, self.B1, self.C1, self.D1)


def block_operator(
    A: RingMatrix, B: RingMatrix, C: RingMatrix, D: RingMatrix
) -> RingMatrix:
    """The 2k x 2k matrix [[A, B], [C, D]]; the four blocks share one ring."""
    for m in (B, C, D):
        A._same_ring(m)
        if (m.rows, m.cols) != (A.rows, A.cols):
            raise DimensionMismatch("blocks must be matrices of equal shape")
    top = tuple(ra + rb for ra, rb in zip(A.entries, B.entries))
    bottom = tuple(rc + rd for rc, rd in zip(C.entries, D.entries))
    return RingMatrix._of(A.ring, top + bottom)


def series_blocks(
    series: str, params
) -> tuple[RingMatrix, RingMatrix, RingMatrix, RingMatrix]:
    """The blocks (A, B, C, D) of one of the classical series.

    series I/II/III take an invertible square matrix B; series VI takes a pair
    (alpha, beta) of rationals with alpha nonzero; SQUARE_ZERO takes three
    n x n rational matrices (A, B, C) embedded as strictly upper-triangular
    2n x 2n blocks a, b, c, with slots x -> a, y -> 1 + c, t -> b.  The
    parameters are validated, but neither the relations nor the inverse
    are computed: series_constructor does both.
    """
    series = series.upper()
    if series in ("I", "II", "III"):
        B = params
        if not isinstance(B, RingMatrix) or not B.is_square():
            raise SingularInput("series I-III require a square matrix parameter")
        ring = B.ring
        k = B.rows
        ident = RingMatrix.identity(ring, k)
        zero = RingMatrix.zeros(ring, k)
        if not ring.is_unit(mat_det(B)):
            raise SingularInput("series I-III require an invertible B")
        if series == "I":
            return zero, B, ident, zero
        if series == "II":
            return zero, B, ident, ident - B
        return ident - B, B, ident, zero
    if series == "VI":
        alpha, beta = params
        alpha, beta = Fraction(alpha), Fraction(beta)
        if not alpha:
            raise SingularInput("series VI requires alpha != 0")
        ring = RATIONAL
        A = RingMatrix(ring, [[0, 1], [0, 0]])
        B = RingMatrix(ring, [[1, beta], [0, 1]])
        C = RingMatrix.identity(ring, 2)
        D = RingMatrix(ring, [[0, alpha], [0, 0]])
        return A, B, C, D
    if series == "SQUARE_ZERO":
        if not (
            isinstance(params, (tuple, list))
            and len(params) == 3
            and all(isinstance(p, RingMatrix) and p.is_square() for p in params)
        ):
            raise InvalidSpec("SQUARE_ZERO requires three square matrices (A, B, C)")
        return _square_zero_blocks(*params)
    raise InvalidSpec(f"unknown series: {series}")


def series_constructor(series: str, params) -> BlockRep:
    """The checked BlockRep of one of the classical series (see series_blocks)."""
    return BlockRep.from_blocks(*series_blocks(series, params))


def _embed_upper(m: RingMatrix) -> RingMatrix:
    """Embed an n x n matrix as the strictly upper block of a 2n x 2n matrix."""
    n = m.rows
    ring = m.ring
    zero = ring.zero
    rows = [
        [zero] * n + list(m.entries[i]) if i < n else [zero] * (2 * n)
        for i in range(2 * n)
    ]
    return RingMatrix(ring, rows)


def square_zero_rep(A: RingMatrix, B: RingMatrix, C: RingMatrix) -> BlockRep:
    """The square-zero family: blocks built from a nilpotent ideal.

    The embedded blocks a, b, c multiply to zero in every order, so the
    assignment x = a, y = 1 + c, t = b satisfies the simplified commutative
    relations identically, and the block operator [[x, y], [I, t]] is
    invertible for every choice of inputs.
    """
    return BlockRep.from_blocks(*_square_zero_blocks(A, B, C))


def _square_zero_blocks(
    A: RingMatrix, B: RingMatrix, C: RingMatrix
) -> tuple[RingMatrix, RingMatrix, RingMatrix, RingMatrix]:
    x, y, t = square_zero_assignment(A, B, C).values()
    return x, y, RingMatrix.identity(x.ring, x.rows), t


def square_zero_assignment(
    A: RingMatrix, B: RingMatrix, C: RingMatrix
) -> dict[str, RingMatrix]:
    """The (x, y, t) slot assignment of the square-zero family."""
    n = A.rows
    for m in (A, B, C):
        if m.rows != n or m.cols != n:
            raise DimensionMismatch("square-zero inputs must be equal-size squares")
    a, b, c = _embed_upper(A), _embed_upper(B), _embed_upper(C)
    ident = RingMatrix.identity(a.ring, 2 * n)
    return {"x": a, "y": ident + c, "t": b}


def rep_from_word(
    rep: BlockRep, w: BraidWord, period2: BlockRep | None = None
) -> RingMatrix:
    """The representation matrix of a braid word, letters in application order.

    Generator t_i is the identity outside its 2k x 2k block at offset
    (i - 1) * k, so right-multiplying by it rewrites only those 2k columns:
    each row's band is replaced by band * op, O(nk * (2k)^2) per letter
    instead of a dense (nk)^3 product; zero band entries contribute no
    terms, so a row whose band is zero is left as it is.  Negative letters
    use the inverse operator.  When period2 is given, odd indices use rep and even indices
    use period2 (both must share the block size and ring).
    """
    k = rep.k
    ring = rep.ring
    if period2 is not None and (period2.k != k or period2.ring is not ring):
        raise DimensionMismatch("period-2 companion must match block size and ring")
    odd = (rep.operator().entries, rep.inverse_operator().entries)
    even = odd if period2 is None else (
        period2.operator().entries,
        period2.inverse_operator().entries,
    )
    strands = w.strands
    one, zero = ring.one, ring.zero
    dim = strands * k
    width = 2 * k
    rows = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    for letter in w.letters:
        index = abs(letter)
        if not 1 <= index <= strands - 1:
            raise IndexOutOfRange(
                f"generator index {index} out of range for {strands} strands"
            )
        op_rows = (even if index % 2 == 0 else odd)[letter < 0]
        base = (index - 1) * k
        end = base + width
        for row in rows:
            terms = [(a, op_row) for a, op_row in zip(row[base:end], op_rows) if a]
            if terms:
                row[base:end] = [
                    sum((a * op_row[j] for a, op_row in terms), zero)
                    for j in range(width)
                ]
    return RingMatrix._of(ring, tuple(map(tuple, rows)))


def burau_rep() -> BlockRep:
    """Series II with the 1 x 1 block B = [q], q the Laurent variable."""
    return series_constructor("II", RingMatrix(LAURENT, [[LaurentPoly.var()]]))


def burau_quadratic_check(rep: BlockRep) -> bool:
    """Whether the block operator M satisfies M^2 - (1-q)M - qI = 0, q = B[0,0]."""
    if rep.k != 1:
        return False
    q = rep.B.entries[0][0]
    m = rep.operator()
    ident = RingMatrix.identity(rep.ring, 2)
    residual = m * m - m.scale(rep.ring.one - q) - ident.scale(q)
    return residual.is_zero()


# -- mutually annihilating operator pairs -----------------------------------


def _is_nilpotent(m: RingMatrix) -> bool:
    power = m
    for _ in range(m.rows):
        if power.is_zero():
            return True
        power = power * m
    return power.is_zero()


@dataclass(frozen=True)
class PairOperators:
    """A mutually annihilating pair: p1 p2 = p2 p1 = 0, both nonzero."""

    dim: int
    p1: RingMatrix
    p2: RingMatrix

    def __post_init__(self):
        for p in (self.p1, self.p2):
            if p.rows != self.dim or p.cols != self.dim:
                raise DimensionMismatch("pair operators must be dim x dim")
        if self.p1.is_zero() or self.p2.is_zero():
            raise InvalidSpec("pair operators must both be nonzero")
        if not (self.p1 * self.p2).is_zero() or not (self.p2 * self.p1).is_zero():
            raise InvalidSpec("pair operators must annihilate in both orders")


def _basis_matrix(ring, images: list[dict[int, Fraction]], dim: int) -> RingMatrix:
    zero = ring.zero
    rows = []
    for img in images:
        row = [zero] * dim
        for j, c in img.items():
            row[j] = ring.coerce(c)
        rows.append(row)
    return RingMatrix(ring, rows)


def type_I_pair(spec: list[tuple[int, int]]) -> PairOperators:
    """A type-I mutually annihilating pair from a sequence (k_a, l_a).

    The carrier has the chain basis v_a p1^k (k = 0..k_a) and v_a p2^l
    (l = 1..l_a - 1 for a < n, l = 1..l_n for a = n), with the chain tops
    identified: v_{a+1} p1^{k_{a+1}} = v_a p2^{l_a}.  Dimension is
    1 + sum(k_a + l_a).
    """
    n = len(spec)
    if n == 0:
        raise InvalidSpec("spec must be nonempty")
    for idx, (k, l) in enumerate(spec, start=1):
        if k < 0 or l < 0:
            raise InvalidSpec("chain lengths must be nonnegative")
        if idx > 1 and k == 0:
            raise InvalidSpec(f"k_{idx} must be positive")
        if idx < n and l == 0:
            raise InvalidSpec(f"l_{idx} must be positive")
    if not any(k > 0 for k, _ in spec) or not any(l > 0 for _, l in spec):
        raise InvalidSpec("spec yields a zero operator in the pair")

    # Basis layout: for each a, the p1 chain v_a p1^0..p1^{k_a}, then the p2
    # chain v_a p2^1..p2^{L} with L = l_a - 1 for a < n and L = l_n for a = n.
    index: dict[tuple[int, str, int], int] = {}
    order = []
    for a, (k, l) in enumerate(spec, start=1):
        for r in range(k + 1):
            index[(a, "p1", r)] = len(order)
            order.append((a, "p1", r))
        top = l - 1 if a < n else l
        for s in range(1, top + 1):
            index[(a, "p2", s)] = len(order)
            order.append((a, "p2", s))
    dim = len(order)

    def resolve_p2(a: int, s: int) -> dict[int, Fraction]:
        """The basis expansion of v_a p2^s, honoring the top identifications."""
        k_next = spec[a][0] if a < n else None
        l_a = spec[a - 1][1]
        if a < n and s == l_a:
            return {index[(a + 1, "p1", k_next)]: Fraction(1)}
        if (a, "p2", s) in index:
            return {index[(a, "p2", s)]: Fraction(1)}
        return {}

    p1_images: list[dict[int, Fraction]] = []
    p2_images: list[dict[int, Fraction]] = []
    for a, kind, power in order:
        k_a, l_a = spec[a - 1]
        if kind == "p1":
            if power < k_a:
                p1_images.append({index[(a, "p1", power + 1)]: Fraction(1)})
            else:
                # Chain top: for a = 1 it dies; for a > 1 it is an identified
                # p2 vector, which p1 kills.
                p1_images.append({})
            p2_images.append(resolve_p2(a, 1) if power == 0 else {})
        else:
            p1_images.append({})
            p2_images.append(resolve_p2(a, power + 1))

    ring = RATIONAL
    return PairOperators(
        dim,
        _basis_matrix(ring, p1_images, dim),
        _basis_matrix(ring, p2_images, dim),
    )


def _has_proper_period(spec: list[tuple[int, int]]) -> bool:
    q = len(spec)
    for d in range(1, q):
        if q % d == 0 and all(spec[i] == spec[i % d] for i in range(q)):
            return True
    return False


def type_II_pair(
    spec: list[tuple[int, int]], f_coeffs: list[Fraction]
) -> PairOperators:
    """A type-II mutually annihilating pair from a nonperiodic sequence.

    spec is the sequence (r_1, s_1)..(r_q, s_q) of positive chain lengths;
    f_coeffs lists b_1..b_t of the companion polynomial
    X^t - b_1 X^{t-1} - ... - b_t, with b_t != 0.  The carrier has, for each
    (mu, nu), the chains v p1^r (r = 0..r_mu - 1) and v p2^s (s = 1..s_mu);
    p1 chain tops resolve into p2 chain tops of the previous block, with the
    wrap-around at (1, 1) weighted by the b coefficients.
    """
    q = len(spec)
    if q == 0:
        raise InvalidSpec("spec must be nonempty")
    if any(r < 1 or s < 1 for r, s in spec):
        raise InvalidSpec("type-II chain lengths must be positive")
    if _has_proper_period(spec):
        raise PeriodicSpec(f"spec {spec} repeats with a proper period")
    b = [Fraction(x) for x in f_coeffs]
    t = len(b)
    if t == 0 or not b[-1]:
        raise InvalidPolynomial("trailing coefficient b_t must be nonzero")

    index: dict[tuple[int, int, str, int], int] = {}
    order = []
    for mu in range(1, q + 1):
        r_mu, s_mu = spec[mu - 1]
        for nu in range(1, t + 1):
            for r in range(r_mu):
                index[(mu, nu, "p1", r)] = len(order)
                order.append((mu, nu, "p1", r))
            for s in range(1, s_mu + 1):
                index[(mu, nu, "p2", s)] = len(order)
                order.append((mu, nu, "p2", s))
    dim = len(order)

    def resolve_p1_top(mu: int, nu: int) -> dict[int, Fraction]:
        """The basis expansion of v_{mu nu} p1^{r_mu}."""
        if mu >= 2:
            s_prev = spec[mu - 2][1]
            return {index[(mu - 1, nu, "p2", s_prev)]: Fraction(1)}
        s_q = spec[q - 1][1]
        if nu >= 2:
            return {index[(q, nu - 1, "p2", s_q)]: Fraction(1)}
        return {
            index[(q, kappa, "p2", s_q)]: b[kappa - 1]
            for kappa in range(1, t + 1)
            if b[kappa - 1]
        }

    p1_images: list[dict[int, Fraction]] = []
    p2_images: list[dict[int, Fraction]] = []
    for mu, nu, kind, power in order:
        r_mu, s_mu = spec[mu - 1]
        if kind == "p1":
            if power + 1 < r_mu:
                p1_images.append({index[(mu, nu, "p1", power + 1)]: Fraction(1)})
            else:
                p1_images.append(resolve_p1_top(mu, nu))
            p2_images.append(
                {index[(mu, nu, "p2", 1)]: Fraction(1)} if power == 0 else {}
            )
        else:
            p1_images.append({})
            if power + 1 <= s_mu:
                p2_images.append({index[(mu, nu, "p2", power + 1)]: Fraction(1)})
            else:
                p2_images.append({})

    ring = RATIONAL
    return PairOperators(
        dim,
        _basis_matrix(ring, p1_images, dim),
        _basis_matrix(ring, p2_images, dim),
    )


def pair_to_triangle_rep(p: PairOperators) -> tuple[RingMatrix, RingMatrix]:
    """The triangle-algebra image (x, y) of a mutually annihilating pair.

    y = p1 and x = p2 - p1 + I; x is invertible because p2 - p1 is nilpotent,
    and y^2 + xy = y holds exactly.
    """
    if not _is_nilpotent(p.p1) or not _is_nilpotent(p.p2):
        raise NotNilpotent("both pair operators must be nilpotent")
    ident = RingMatrix.identity(p.p1.ring, p.dim)
    y = p.p1
    x = p.p2 - p.p1 + ident
    return x, y


def pair_to_block_rep(p: PairOperators) -> BlockRep:
    """The BlockRep (A = 0, B = x, C = I, D = y) induced by a pair."""
    x, y = pair_to_triangle_rep(p)
    ring = x.ring
    return BlockRep.from_blocks(
        RingMatrix.zeros(ring, p.dim), x, RingMatrix.identity(ring, p.dim), y
    )
