"""Word and permutation combinatorics.

Shuffles, Hoffman quasi-shuffles and their half-products, canonical cycle
decompositions, and set partitions. Everything returns immutable values in a
deterministic order so failing cases render reproducibly.

Half-products split off the first letter: with u = au', v = bv',

    u up v   = a (u' sh v)         u down v = b (u sh v')

and up + down recovers the shuffle; the quasi-shuffle adds the merge term
(a+b)(u' sh v') on top. Words of length <= 1 sit in the base cases: the unit
word shuffles trivially, but the half-products need a first letter to peel
and are therefore only defined for nonempty arguments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ConfigError
from .polynomials import NCPoly, Word

_MAX_ARITY = 8


@dataclass(frozen=True)
class Permutation:
    """One-line notation: images[i-1] = sigma(i), indices 1..n."""

    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __str__(self) -> str:
        return "[" + " ".join(str(i) for i in self.images) + "]"


@dataclass(frozen=True)
class CycleDecomposition:
    cycles: tuple

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(tuple(c) for c in self.cycles))

    def to_permutation(self) -> Permutation:
        n = sum(len(c) for c in self.cycles)
        images = [0] * n
        for cycle in self.cycles:
            for pos, a in enumerate(cycle):
                images[a - 1] = cycle[(pos + 1) % len(cycle)]
        return Permutation(tuple(images))

    def __str__(self) -> str:
        return "".join("(" + " ".join(str(a) for a in c) + ")" for c in self.cycles)


def canonical_cycles(p: Permutation) -> CycleDecomposition:
    """Cycles rotated max-first, then sorted by increasing first entry."""
    seen = set()
    cycles = []
    for start in range(1, p.size + 1):
        if start in seen:
            continue
        cycle = [start]
        seen.add(start)
        nxt = p(start)
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = p(nxt)
        top = cycle.index(max(cycle))
        cycles.append(tuple(cycle[top:] + cycle[:top]))
    cycles.sort(key=lambda c: c[0])
    return CycleDecomposition(tuple(cycles))


def permutations(n: int):
    """All of S_n in lexicographic one-line order."""
    if not 1 <= n <= _MAX_ARITY:
        raise ConfigError(f"permutation degree must be in 1..{_MAX_ARITY}, got {n}")
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)


@dataclass(frozen=True)
class SetPartition:
    """Blocks sorted internally and by smallest element."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(
            self,
            "blocks",
            tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0])),
        )

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "".join("{" + ",".join(str(i) for i in b) + "}" for b in self.blocks)


def set_partitions(n: int):
    """All partitions of {1..n}; the count is the Bell number."""
    if not 1 <= n <= _MAX_ARITY:
        raise ConfigError(f"partition size must be in 1..{_MAX_ARITY}, got {n}")
    parts = [[[1]]]
    for k in range(2, n + 1):
        grown = []
        for p in parts:
            for i in range(len(p)):
                grown.append([list(b) for b in p[:i]] + [p[i] + [k]] + [list(b) for b in p[i + 1:]])
            grown.append([list(b) for b in p] + [[k]])
        parts = grown
    return [SetPartition(tuple(tuple(b) for b in p)) for p in parts]


@dataclass(frozen=True)
class MonoidAlphabet:
    """Positive-integer letters composed by addition.

    ``size`` bounds the generating letters used when sampling words; sums of
    letters may exceed it, the monoid itself is all positive integers.
    """

    size: int = 4

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"alphabet size must be positive, got {self.size}")

    def combine(self, a: int, b: int) -> int:
        return a + b

    def words(self, max_len: int):
        """All words over the generating letters, lengths 1..max_len."""
        for k in range(1, max_len + 1):
            for letters in itertools.product(range(1, self.size + 1), repeat=k):
                yield Word(letters)


# ---------------------------------------------------------------------------
# shuffles


def shuffle(u: Word, v: Word) -> list:
    """All interleavings as a list (a multiset: repeats count)."""
    n, m = len(u), len(v)
    out = []
    for positions in itertools.combinations(range(n + m), n):
        pos = set(positions)
        ui = iter(u.letters)
        vi = iter(v.letters)
        out.append(Word(next(ui) if k in pos else next(vi) for k in range(n + m)))
    return out


def word_sum(words) -> NCPoly:
    """The words added up, each with its multiplicity."""
    num: dict = {}
    for w in words:
        key = w.letters
        num[key] = num.get(key, 0) + 1
    return NCPoly._of(num, 1)


def shuffle_sum(u: Word, v: Word) -> NCPoly:
    return word_sum(shuffle(u, v))


def is_shuffle_of(w: Word, u: Word, v: Word) -> bool:
    return w in shuffle(u, v)


def _prefixed(a: int, p: NCPoly) -> NCPoly:
    """The letter a put in front of every word of p."""
    return NCPoly.from_word(Word((a,))) * p


def shuffle_upper(u: Word, v: Word) -> NCPoly:
    """u up v = a (u' sh v) for u = au'; undefined for empty u."""
    if not len(u):
        raise ValueError("upper half-shuffle needs a nonempty left word")
    return _prefixed(u.letters[0], shuffle_sum(Word(u.letters[1:]), v))


def shuffle_lower(u: Word, v: Word) -> NCPoly:
    """u down v = b (u sh v') for v = bv'; undefined for empty v."""
    if not len(v):
        raise ValueError("lower half-shuffle needs a nonempty right word")
    return _prefixed(v.letters[0], shuffle_sum(u, Word(v.letters[1:])))


# ---------------------------------------------------------------------------
# quasi-shuffles (Hoffman recursion)


def quasi_shuffle(u: Word, v: Word, alpha: MonoidAlphabet) -> NCPoly:
    """(au') qsh (bv') = a(u' qsh bv') + b(au' qsh v') + (a+b)(u' qsh v').

    One recursion over the suffixes u[i:], v[j:], each product formed once in
    the call, as a map word -> integer multiplicity.
    """
    us, vs = u.letters, v.letters
    done: dict = {}

    def suffixes(i: int, j: int) -> dict:
        out = done.get((i, j))
        if out is not None:
            return out
        if i == len(us) or j == len(vs):
            out = {us[i:] + vs[j:]: 1}  # one of the two suffixes is empty
        else:
            a, b = us[i], vs[j]
            out = {}
            get = out.get
            for head, rest in (
                (a, suffixes(i + 1, j)),
                (b, suffixes(i, j + 1)),
                (alpha.combine(a, b), suffixes(i + 1, j + 1)),
            ):
                for w, c in rest.items():
                    w = (head, *w)
                    out[w] = get(w, 0) + c
        done[i, j] = out
        return out

    return NCPoly._of(suffixes(0, 0), 1)


def quasi_shuffle_upper(u: Word, v: Word, alpha: MonoidAlphabet) -> NCPoly:
    """u up v = a (u' qsh v)."""
    if not len(u):
        raise ValueError("upper half needs a nonempty left word")
    return _prefixed(u.letters[0], quasi_shuffle(Word(u.letters[1:]), v, alpha))


def quasi_shuffle_lower(u: Word, v: Word, alpha: MonoidAlphabet) -> NCPoly:
    """u down v = b (u qsh v')."""
    if not len(v):
        raise ValueError("lower half needs a nonempty right word")
    return _prefixed(v.letters[0], quasi_shuffle(u, Word(v.letters[1:]), alpha))


def quasi_shuffle_merge(u: Word, v: Word, alpha: MonoidAlphabet) -> NCPoly:
    """u . v = (a+b)(u' qsh v'): the image of the carrier product on words."""
    if not len(u) or not len(v):
        raise ValueError("merge needs nonempty words")
    merged = alpha.combine(u.letters[0], v.letters[0])
    return _prefixed(merged, quasi_shuffle(Word(u.letters[1:]), Word(v.letters[1:]), alpha))


def bilinear(op, p: NCPoly, q: NCPoly) -> NCPoly:
    """Extend a Word x Word -> NCPoly operation to formal sums."""
    out = NCPoly.zero()
    for wu, cu in p.terms.items():
        for wv, cv in q.terms.items():
            out = out + (cu * cv) * op(wu, wv)
    return out
