"""Four-index braid tensors and their action on tensor-product spaces.

A BraidTensor T stores entries T[i1][i2][j1][j2]; the upper pair (i1, i2) is
the output (row) index and the lower pair (j1, j2) the input (column) index,
flattened row-major as i1*m + i2.  A tensor satisfying the braid equation and
whose m^2 x m^2 matrix is invertible yields a braid-group representation by
acting on adjacent factors of V tensored n times.

The braid equation is decided two ways.  A tensor built from a matrix pair
(a, b) passes exactly when a b = b a (period 2: two such identities across
the pairs), which a few m x m products settle.  Any other tensor, or a pair
that fails its identity, has both sides composed from sparse slot operators
on three strands and compared entry by entry, which lists the violations.

Traces of word images can be computed three ways: densely (small n only), by
sparse row contraction, or, for tensors built from a matrix pair, by folding
the word onto per-strand matrix products and multiplying cycle traces.

A tensor whose nonzero entries are all c*T^e for one shared e (every
rational tensor, and every pair tensor the presets build) has an integer
form s*T^e*N: a rational scale s, an exponent e and a tensor N over INTEGER
(IntegerTensorForm, cached on the tensor when first asked for, together
with the form of its inverse).  The pair check, the partial-trace scalars,
the inverse and all three trace routes then run on plain ints: the routes
on N and on the inverse's integer tensor, with the scales and exponents
applied once to the integer trace.
Any other tensor (an entry such as 1 + T, or two entries of different
degree) runs the same code in its own ring: the Laurent path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .braids import BraidWord, cycle_products, fold_labels, underlying_permutation
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NoMatrixPair,
    NotScalar,
    SingularInput,
    ZeroScalar,
)
from .matrix import (
    IntegerMatrixForm,
    RingMatrix,
    integer_form,
    integer_form_inverse,
    mat_det,
    mat_inverse,
)
from .rings import INTEGER


@dataclass(frozen=True)
class BraidTensor:
    """A 4-index tensor T[i1][i2][j1][j2] over an exact ring."""

    m: int
    ring: object
    entries: tuple
    # The matrix pair (a, b) the entries were built from, kept for fast
    # traces.  Only tensor_from_matrix_pair sets it, so it always describes
    # the stored entries.
    pair: tuple[RingMatrix, RingMatrix] | None = field(
        default=None, init=False, compare=False
    )

    @classmethod
    def from_function(cls, m: int, ring, fn) -> "BraidTensor":
        entries = tuple(
            tuple(
                tuple(
                    tuple(ring.coerce(fn(i1, i2, j1, j2)) for j2 in range(m))
                    for j1 in range(m)
                )
                for i2 in range(m)
            )
            for i1 in range(m)
        )
        return cls(m, ring, entries)

    def __getitem__(self, idx: tuple[int, int, int, int]):
        i1, i2, j1, j2 = idx
        return self.entries[i1][i2][j1][j2]

    @cached_property
    def integer_form(self) -> "IntegerTensorForm | None":
        """This tensor as s * T^e * N with N over INTEGER, or None if it has
        no such form (some nonzero entry is not c * T^e for one shared e).

        A pair tensor takes the forms of its two matrices (each checked
        against its entries by matrix.integer_form); any other tensor takes
        the form of its m^2 x m^2 matrix.
        """
        if self.pair is not None:
            fa, fb = (integer_form(x) for x in self.pair)
            return None if fa is None or fb is None else _pair_form(self.ring, fa, fb)
        f = integer_form(tensor_to_matrix(self))
        if f is None:
            return None
        return IntegerTensorForm(self.ring, f.scale, f.exp, matrix_to_tensor(f.matrix, self.m))

    def to_jsonable(self) -> dict:
        return {
            "m": self.m,
            "ring": self.ring.name,
            "entries": [
                [
                    [[self.ring.to_text(x) for x in r2] for r2 in r1]
                    for r1 in block
                ]
                for block in self.entries
            ],
        }


@dataclass(frozen=True)
class IntegerTensorForm:
    """A tensor over ring as scale * T^exp * tensor, with tensor over INTEGER.

    The form of a pair tensor (a, b) keeps the forms of a and b: its scale
    and exponent are their products and sums, and its tensor is the pair
    tensor of their integer matrices, so the slots trace folds integers.
    """

    ring: object
    scale: Fraction
    exp: int
    tensor: BraidTensor
    pair: tuple[IntegerMatrixForm, IntegerMatrixForm] | None = None

    @cached_property
    def inverse(self) -> "IntegerTensorForm":
        """The form of the inverse tensor: one fraction-free pass per pair
        matrix, or one on the m^2 x m^2 matrix of any other tensor."""
        if self.pair is not None:
            fa, fb = (integer_form_inverse(f, self.ring) for f in self.pair)
            return _pair_form(self.ring, fb, fa)
        f = IntegerMatrixForm(self.scale, self.exp, tensor_to_matrix(self.tensor))
        inv = integer_form_inverse(f, self.ring)
        return IntegerTensorForm(
            self.ring, inv.scale, inv.exp, matrix_to_tensor(inv.matrix, self.tensor.m)
        )


def _pair_form(ring, fa: IntegerMatrixForm, fb: IntegerMatrixForm) -> IntegerTensorForm:
    """The form of the pair tensor of the matrices with forms fa and fb."""
    tensor = _pair_tensor(fa.matrix, fb.matrix)
    return IntegerTensorForm(ring, fa.scale * fb.scale, fa.exp + fb.exp, tensor, (fa, fb))


def tensor_to_matrix(T: BraidTensor) -> RingMatrix:
    """The m^2 x m^2 matrix with row (i1, i2) and column (j1, j2)."""
    m = T.m
    rows = [
        [T[i1, i2, j1, j2] for j1 in range(m) for j2 in range(m)]
        for i1 in range(m)
        for i2 in range(m)
    ]
    return RingMatrix(T.ring, rows)


def matrix_to_tensor(mat: RingMatrix, m: int) -> BraidTensor:
    if mat.rows != m * m or mat.cols != m * m:
        raise DimensionMismatch(f"expected a {m * m} x {m * m} matrix")
    return BraidTensor.from_function(
        m, mat.ring, lambda i1, i2, j1, j2: mat.entries[i1 * m + i2][j1 * m + j2]
    )


def identity_tensor(m: int, ring) -> BraidTensor:
    return BraidTensor.from_function(
        m, ring, lambda i1, i2, j1, j2: ring.one if (i1, i2) == (j1, j2) else ring.zero
    )


def swap_tensor(m: int, ring) -> BraidTensor:
    return BraidTensor.from_function(
        m, ring, lambda i1, i2, j1, j2: ring.one if (i1, i2) == (j2, j1) else ring.zero
    )


def tensor_from_matrix_pair(a: RingMatrix, b: RingMatrix) -> BraidTensor:
    """The tensor T[i1][i2][j1][j2] = b[i1][j2] * a[i2][j1].

    As a matrix this is (b kron a) times the swap, so it is invertible exactly
    when a and b are.
    """
    if a.ring is not b.ring or a.rows != b.rows or not a.is_square() or not b.is_square():
        raise DimensionMismatch("pair must be square matrices of equal size and ring")
    ring = a.ring
    if not ring.is_unit(mat_det(a)) or not ring.is_unit(mat_det(b)):
        raise SingularInput("both matrices of the pair must be invertible")
    return _pair_tensor(a, b)


def _pair_tensor(a: RingMatrix, b: RingMatrix) -> BraidTensor:
    """The pair tensor of (a, b), with the pair recorded; no checks."""
    T = BraidTensor.from_function(
        a.rows, a.ring, lambda i1, i2, j1, j2: b.entries[i1][j2] * a.entries[i2][j1]
    )
    object.__setattr__(T, "pair", (a, b))
    return T


def tensor_inverse(T: BraidTensor) -> BraidTensor:
    """The tensor of the inverse operator, refolded to 4-index form.

    A pair tensor is (b kron a) times the swap S, so its inverse
    S (b^-1 kron a^-1) = (a^-1 kron b^-1) S is the pair tensor of
    (b^-1, a^-1), and no m^2 x m^2 inversion is needed.  Any other tensor
    with an integer form reads its inverse off the form's cached inverse;
    only a tensor without one inverts its m^2 x m^2 matrix in its ring.
    """
    if T.pair is not None:
        a, b = T.pair
        return tensor_from_matrix_pair(mat_inverse(b), mat_inverse(a))
    form = T.integer_form
    if form is None:
        return matrix_to_tensor(mat_inverse(tensor_to_matrix(T)), T.m)
    inv, ring = form.inverse, T.ring
    return BraidTensor.from_function(
        T.m, ring, lambda *idx: ring.monomial(inv.scale * inv.tensor[idx], inv.exp)
    )


def check_braid_equation(
    T: BraidTensor, U: BraidTensor | None = None
) -> list[tuple[str, tuple[int, ...]]]:
    """Violations of the braid equation, empty iff the tensor(s) pass.

    With one tensor the period-1 equation "viii" is checked; with two, the
    period-2 pair "xv" and "xvi".  Each violation is (relation name,
    (i1,i2,i3,j1,j2,j3)), listed relation by relation in lexicographic order
    of the index tuple.

    Pair tensors whose matrices satisfy the pair identities pass after a few
    m x m products (see _pair_identities_hold).  Every other case, a failed
    pair identity included, composes the slot operators of both sides on
    three strands and compares them entry by entry, so each failure is
    reported from the tensor entries.
    """
    if U is not None and (U.m != T.m or U.ring is not T.ring):
        raise DimensionMismatch("both tensors must share the local dimension and ring")
    if _pair_identities_hold(T, T if U is None else U):
        return []
    if U is None:
        return _violations(T, T, "viii", _SLOT_ORDER)
    return _violations(T, U, "xv", _SLOT_ORDER) + _violations(U, T, "xvi", _XVI_ORDER)


# The index tuple a relation reports, as positions in (I1,I2,I3,J1,J2,J3) of
# R12(A) R23(B) R12(A) = R23(B) R12(A) R23(B).  "xvi" is this equation with
# A = U, B = T, read at (i2,i3,i1,j2,j3,j1).
_SLOT_ORDER = (0, 1, 2, 3, 4, 5)
_XVI_ORDER = (2, 0, 1, 5, 3, 4)


def _pair_identities_hold(T: BraidTensor, U: BraidTensor) -> bool:
    """Whether pair tensors T (a1, b1) and U (a2, b2) satisfy "xv" and "xvi".

    A pair tensor sends x (x) y to b y (x) a x.  So R12(T) R23(U) R12(T) sends
    x1 (x) x2 (x) x3 to b1 b2 x3 (x) a1 b1 x2 (x) a2 a1 x1, and
    R23(U) R12(T) R23(U) to b1 b2 x3 (x) b2 a2 x2 (x) a2 a1 x1: the outer
    factors are invertible, so "xv" holds exactly when a1 b1 = b2 a2, and
    "xvi" (roles swapped) when a2 b2 = b1 a1.  With U = T both read a b = b a,
    the period-1 equation "viii".

    With integer forms each side is s * T^e times a product of integer
    matrices, and the integer products are compared.
    """
    if T.pair is None or U.pair is None:
        return False
    ft, fu = T.integer_form, U.integer_form
    if ft is None or fu is None:
        (a1, b1), (a2, b2) = T.pair, U.pair
        return a1 * b1 == b2 * a2 and (U is T or a2 * b2 == b1 * a1)

    (a1, b1), (a2, b2) = ft.tensor.pair, fu.tensor.pair
    return _scaled_equal(ft, a1 * b1, fu, b2 * a2) and (
        U is T or _scaled_equal(fu, a2 * b2, ft, b1 * a1)
    )


def _scaled_equal(f, x: RingMatrix, g, y: RingMatrix) -> bool:
    """Whether s T^e x equals s' T^e' y, for the scales and exponents of the
    forms f and g and integer matrices x and y."""
    if f.scale == g.scale and f.exp == g.exp:
        return x == y
    if f.exp != g.exp:
        return x.is_zero() and y.is_zero()
    r = g.scale / f.scale
    return x.scale(r.denominator) == y.scale(r.numerator)


def _violations(
    A: BraidTensor, B: BraidTensor, name: str, order: tuple[int, ...]
) -> list[tuple[str, tuple[int, ...]]]:
    """Where R12(A) R23(B) R12(A) and R23(B) R12(A) R23(B) differ on three strands."""
    m, ring = A.m, A.ring
    r12, r23 = SlotOperator(A, 3, 1), SlotOperator(B, 3, 2)

    def product(*ops: SlotOperator) -> dict[int, dict[int, object]]:
        rows: dict[int, dict[int, object]] = {r: {r: ring.one} for r in range(m**3)}
        for op in ops:
            rows = op.apply_rows(rows)
        return rows

    lhs, rhs = product(r12, r23, r12), product(r23, r12, r23)
    out = []
    for row, left in lhs.items():
        right = rhs[row]
        for col in left.keys() | right.keys():
            if left.get(col, ring.zero) != right.get(col, ring.zero):
                pos = _config_unrank(row, m, 3) + _config_unrank(col, m, 3)
                out.append(tuple(pos[k] for k in order))
    return [(name, idx) for idx in sorted(out)]


def partial_trace_scalars(T: BraidTensor):
    """The scalars (lambda1, lambda2) of the two partial-trace matrices.

    lambda1 comes from gamma^{i1}_{i2} = sum_j T[i1][j][i2][j]; lambda2 from
    the same contraction of the inverse tensor.  Both matrices must be
    nonzero scalar multiples of the identity.  For a pair tensor (a, b),
    gamma = b a and the inverse's is (b a)^-1; lambda1 is a unit, as
    lambda1^m = det b det a.  Any other tensor with an integer form
    s * T^e * N has gamma = s * T^e * gamma(N), and its inverse's form
    gives lambda2 the same way, so neither is computed in the ring.
    """
    ring = T.ring
    if T.pair is not None:
        a, b = T.pair
        lam = _scalar_of((b * a).entries, ring)
        return lam, ring.unit_inverse(lam)
    form = T.integer_form
    if form is None:
        return _scalar_of(_gamma(T), ring), _scalar_of(_gamma(tensor_inverse(T)), ring)

    def scalar(f: IntegerTensorForm):
        return ring.monomial(f.scale * _scalar_of(_gamma(f.tensor), INTEGER), f.exp)

    return scalar(form), scalar(form.inverse)


def _gamma(T: BraidTensor) -> list[list]:
    """The partial-trace matrix gamma^{i1}_{i2} = sum_j T[i1][j][i2][j]."""
    m, zero = T.m, T.ring.zero
    return [
        [sum((T[i1, j, i2, j] for j in range(m)), zero) for i2 in range(m)]
        for i1 in range(m)
    ]


def _scalar_of(gamma, ring):
    """The scalar lam with gamma = lam * I; raises unless it exists and is nonzero."""
    lam = gamma[0][0]
    for i1, row in enumerate(gamma):
        for i2, x in enumerate(row):
            if x != (lam if i1 == i2 else ring.zero):
                raise NotScalar("partial trace is not a scalar matrix")
    if ring.is_zero(lam):
        raise ZeroScalar("partial-trace scalar vanished")
    return lam


class SlotOperator:
    """The operator acting as a tensor on factors (i, i+1), identity elsewhere.

    A basis index of the n-fold product is a base-m number whose digits are
    the factors' indices.  The digits at factors i and i+1 read together as
    uv = (col // stride) % m^2, and the operator sends col to col + offset,
    times val, for each (offset, val) in moves[uv]: the nonzero entries
    T[u][v][p][q], with offset = (p m + q - uv) * stride.
    """

    def __init__(self, T: BraidTensor, strands: int, index: int):
        if not 1 <= index <= strands - 1:
            raise IndexOutOfRange(
                f"generator index {index} out of range for {strands} strands"
            )
        self.T = T
        self.strands = strands
        self.index = index
        m, is_zero = T.m, T.ring.is_zero
        self.stride = stride = m ** (strands - index - 1)
        self.moves = tuple(
            tuple(
                ((p * m + q - uv) * stride, x)
                for p, row in enumerate(block)
                for q, x in enumerate(row)
                if not is_zero(x)
            )
            for uv, block in enumerate(b for rows in T.entries for b in rows)
        )

    def to_matrix(self) -> RingMatrix:
        """The dense m^n x m^n matrix; intended for small strand counts only."""
        dim = self.T.m**self.strands
        zero, stride, moves, mm = self.T.ring.zero, self.stride, self.moves, self.T.m**2
        rows = [[zero] * dim for _ in range(dim)]
        for row, out in enumerate(rows):
            for offset, val in moves[(row // stride) % mm]:
                out[row + offset] = val
        return RingMatrix._of(self.T.ring, tuple(map(tuple, rows)))

    def apply_rows(self, rows: dict[int, dict[int, object]]) -> dict[int, dict[int, object]]:
        """Right-multiply a sparse row map {row: {col: coeff}} by this operator."""
        stride, moves, mm = self.stride, self.moves, self.T.m**2
        is_zero = self.T.ring.is_zero
        out: dict[int, dict[int, object]] = {}
        for row, cols in rows.items():
            acc: dict[int, object] = {}
            for col, coeff in cols.items():
                for offset, val in moves[(col // stride) % mm]:
                    new_col = col + offset
                    cur = acc.get(new_col)
                    term = coeff * val
                    acc[new_col] = term if cur is None else cur + term
            out[row] = {c: x for c, x in acc.items() if not is_zero(x)}
        return out


def _config_unrank(rank: int, m: int, n: int) -> tuple[int, ...]:
    cfg = [0] * n
    for pos in range(n - 1, -1, -1):
        cfg[pos] = rank % m
        rank //= m
    return tuple(cfg)


def tensor_rep_trace(T: BraidTensor, w: BraidWord, method: str = "auto"):
    """Exact trace of the word's image in the n-fold tensor representation.

    method "dense" multiplies full m^n matrices (oracle for small n);
    "contract" right-multiplies a sparse row map by each local operator;
    "slots" folds the word onto per-strand matrix products, available when the
    tensor was built from a matrix pair.  "auto" picks the fastest valid one.

    A tensor with an integer form s * T^e * N runs the route on N and on
    the inverse's form s' * T^e' * N', then multiplies the integer trace
    once by s^p s'^q T^(e p + e' q), for p positive and q negative letters.
    Any other tensor runs the route in its own ring.
    """
    if method == "auto":
        method = "slots" if T.pair is not None else "contract"
    route = _ROUTES.get(method)
    if route is None:
        raise ValueError(f"unknown trace method: {method}")
    if method == "slots" and T.pair is None:
        raise NoMatrixPair("the slots trace needs a tensor built from a matrix pair")
    negative = sum(1 for k in w.letters if k < 0)
    form = T.integer_form
    if form is None:
        return route(T, tensor_inverse(T) if negative else None, w)
    positive = len(w.letters) - negative
    scale, exp, inverse = form.scale**positive, form.exp * positive, None
    if negative:
        inv = form.inverse
        scale, exp, inverse = scale * inv.scale**negative, exp + inv.exp * negative, inv.tensor
    trace = route(form.tensor, inverse, w)
    return T.ring.monomial(scale * trace, exp)


# Each route takes the tensor, its inverse (None when the word has no
# negative letter) and the word, and computes in the tensors' ring.


def _slot_operators(T: BraidTensor, inverse: BraidTensor | None, w: BraidWord):
    """One SlotOperator per distinct letter of the word."""
    return {
        k: SlotOperator(T if k > 0 else inverse, w.strands, abs(k)) for k in set(w.letters)
    }


def _trace_dense(T: BraidTensor, inverse: BraidTensor | None, w: BraidWord):
    dense = {k: op.to_matrix() for k, op in _slot_operators(T, inverse, w).items()}
    if not w.letters:
        return T.ring.one * T.m**w.strands
    result = dense[w.letters[0]]
    for letter in w.letters[1:]:
        result = result * dense[letter]
    return result.trace()


def _trace_by_contraction(T: BraidTensor, inverse: BraidTensor | None, w: BraidWord):
    ops = _slot_operators(T, inverse, w)
    ring = T.ring
    dim = T.m**w.strands
    rows: dict[int, dict[int, object]] = {r: {r: ring.one} for r in range(dim)}
    for letter in w.letters:
        rows = ops[letter].apply_rows(rows)
    return sum((rows[r].get(r, ring.zero) for r in range(dim)), ring.zero)


def _trace_by_slots(T: BraidTensor, inverse: BraidTensor | None, w: BraidWord):
    """Fold the word onto one matrix product per strand, then multiply
    the traces of the label products around each closure cycle.

    For a tensor built from the pair (a, b), the generator acts on adjacent
    factors by swapping them and inserting b on one strand and a on the
    other (a^-1 and b^-1 for its inverse, the pair tensor of (b^-1, a^-1));
    the full trace therefore factors over the cycles of the underlying
    permutation.
    """

    def labels_of(letter: int):
        a, b = (T if letter > 0 else inverse).pair
        return b, a

    strand_labels = fold_labels(w, RingMatrix.identity(T.ring, T.m), labels_of)
    total = T.ring.one
    for prod in cycle_products(underlying_permutation(w), strand_labels):
        total = total * prod.trace()
    return total


_ROUTES = {"slots": _trace_by_slots, "contract": _trace_by_contraction, "dense": _trace_dense}
