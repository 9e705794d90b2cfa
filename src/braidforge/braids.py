"""Braid words, permutations, closure components, and Markov moves.

A braid word lists signed generator indices in application order: the first
letter acts first.  The closure of a word on n strands joins top point j to
bottom point j; its components are the cycles of the underlying permutation.
Markov moves (conjugation and stabilization) preserve the closure's isotopy
class, which is what every invariant in this package is tested against.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .errors import IndexOutOfRange, NotDestabilizable, ParseError


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group B_strands, letters in application order."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise IndexOutOfRange(f"strand count must be >= 1, got {self.strands}")
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        for k in letters:
            if not isinstance(k, int) or k == 0:
                raise ParseError(f"letters must be nonzero integers, got {k!r}")
            if abs(k) >= self.strands:
                raise IndexOutOfRange(
                    f"generator index {abs(k)} needs at least {abs(k) + 1} strands"
                )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise IndexOutOfRange("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-k for k in reversed(self.letters)))

    def to_jsonable(self) -> dict:
        return {"strands": self.strands, "letters": list(self.letters)}

    @classmethod
    def from_jsonable(cls, data: dict) -> "BraidWord":
        return cls(int(data["strands"]), tuple(int(k) for k in data["letters"]))

    def text(self) -> str:
        return " ".join(str(k) for k in self.letters)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ParseError(f"not a permutation of 1..{len(images)}: {images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int) -> "Permutation":
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        return self.images[j - 1]

    def compose(self, after: "Permutation") -> "Permutation":
        """The permutation 'self then after': j -> after(self(j))."""
        if self.size != after.size:
            raise IndexOutOfRange("permutation size mismatch")
        return Permutation(tuple(after(self(j)) for j in range(1, self.size + 1)))

    def inverse(self) -> "Permutation":
        images = [0] * self.size
        for j in range(1, self.size + 1):
            images[self(j) - 1] = j
        return Permutation(tuple(images))

    def cycles(self) -> list[list[int]]:
        """Cycle decomposition; each cycle starts at its minimal element."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.size + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cycle.append(j)
                seen.add(j)
                j = self(j)
            out.append(cycle)
        return out


_TOKEN_RE = re.compile(r"^[+-]?\d+$")


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse comma/space-separated signed generator indices."""
    if strands < 1:
        raise IndexOutOfRange(f"strand count must be >= 1, got {strands}")
    letters = []
    for token in text.replace(",", " ").split():
        if not _TOKEN_RE.match(token):
            raise ParseError(f"bad braid letter: {token!r}")
        k = int(token)
        if k == 0:
            raise ParseError("generator index 0 is not allowed")
        if abs(k) >= strands:
            raise IndexOutOfRange(
                f"generator index {abs(k)} out of range for {strands} strands"
            )
        letters.append(k)
    return BraidWord(strands, tuple(letters))


def exponent_sum(w: BraidWord) -> int:
    return sum(1 if k > 0 else -1 for k in w.letters)


def underlying_permutation(w: BraidWord) -> Permutation:
    p = Permutation.identity(w.strands)
    for k in w.letters:
        p = p.compose(Permutation.transposition(w.strands, abs(k)))
    return p


def fold_labels(w: BraidWord, identity, labels_of) -> list:
    """Per strand (by top position - 1), the product of its labels in order.

    labels_of(letter), called once per distinct letter, gives the labels
    (left, right) for the strands at positions |letter| and |letter| + 1.
    Only those two products change per letter.
    """
    labels = [identity] * w.strands
    pairs = {}
    # at[p] is the top position - 1 of the strand now at position p + 1.
    at = list(range(w.strands))
    for letter in w.letters:
        pair = pairs.get(letter)
        if pair is None:
            pair = pairs[letter] = labels_of(letter)
        left, right = pair
        i = abs(letter)
        s, t = at[i - 1], at[i]
        # A strand's first label needs no product with the identity.
        labels[s] = left if labels[s] is identity else labels[s] * left
        labels[t] = right if labels[t] is identity else labels[t] * right
        at[i - 1], at[i] = t, s
    return labels


def cycle_products(perm: Permutation, labels) -> list:
    """Per cycle of perm, its positions' labels multiplied in cycle order."""
    out = []
    for cycle in perm.cycles():
        prod = labels[cycle[0] - 1]
        for j in cycle[1:]:
            prod = prod * labels[j - 1]
        out.append(prod)
    return out


def closure_components(w: BraidWord) -> list[list[int]]:
    """Cycles of the underlying permutation; one cycle per link component."""
    return underlying_permutation(w).cycles()


@dataclass(frozen=True)
class Conjugate:
    """Markov move (i): replace w by gamma * w * gamma^-1."""

    gamma: BraidWord


@dataclass(frozen=True)
class Stabilize:
    """Markov move (ii): prepend t_n^sign, moving from B_n to B_{n+1}."""

    sign: int = 1


@dataclass(frozen=True)
class Destabilize:
    """Inverse of Stabilize, when the word's shape allows it."""


MarkovMove = Conjugate | Stabilize | Destabilize


def markov_move(w: BraidWord, move: MarkovMove) -> BraidWord:
    if isinstance(move, Conjugate):
        g = move.gamma
        if g.strands != w.strands:
            raise IndexOutOfRange("conjugator must live on the same strand count")
        return g * w * g.inverse()
    if isinstance(move, Stabilize):
        if move.sign not in (1, -1):
            raise ParseError(f"stabilization sign must be +1 or -1, got {move.sign}")
        top = w.strands
        letters = (move.sign * top,) + w.letters
        return BraidWord(w.strands + 1, letters)
    if isinstance(move, Destabilize):
        n = w.strands
        if n < 2 or not w.letters:
            raise NotDestabilizable("no top generator to remove")
        top = n - 1
        uses = [i for i, k in enumerate(w.letters) if abs(k) == top]
        if len(uses) != 1 or uses[0] not in (0, len(w.letters) - 1):
            raise NotDestabilizable(
                "word must contain exactly one top-generator letter, at an end"
            )
        i = uses[0]
        letters = w.letters[:i] + w.letters[i + 1 :]
        return BraidWord(n - 1, letters)
    raise TypeError(f"unknown Markov move: {move!r}")


def random_markov_perturbation(w: BraidWord, steps: int, seed: int) -> BraidWord:
    """Apply a seed-deterministic sequence of Markov moves.

    The result closes to a link isotopic to the closure of w.  Roughly half
    the moves are conjugations by short random words; the rest split between
    stabilizations and destabilizations (falling back to stabilization when
    the word shape does not permit removal).
    """
    rng = random.Random(seed)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.5 and w.strands >= 2:
            length = rng.randint(1, 2)
            letters = tuple(
                rng.choice([1, -1]) * rng.randint(1, w.strands - 1)
                for _ in range(length)
            )
            w = markov_move(w, Conjugate(BraidWord(w.strands, letters)))
        elif roll < 0.75:
            w = markov_move(w, Stabilize(rng.choice([1, -1])))
        else:
            try:
                w = markov_move(w, Destabilize())
            except NotDestabilizable:
                w = markov_move(w, Stabilize(rng.choice([1, -1])))
    return w


def random_braid_word(
    rng: random.Random, max_strands: int = 4, max_letters: int = 8
) -> BraidWord:
    """A random word on 2..max_strands strands with up to max_letters letters."""
    strands = rng.randint(2, max_strands)
    count = rng.randint(0, max_letters)
    letters = tuple(
        rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(count)
    )
    return BraidWord(strands, letters)
