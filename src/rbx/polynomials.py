"""Words over a positive-integer alphabet and polynomial coefficients on them.

``NCPoly`` is the free associative algebra: finitely supported maps from words
to rationals with concatenation product. ``CPoly`` is its commutative quotient,
keyed by sorted words (monomials read as multisets of letters). Both accept an
optional degree cap: words longer than the cap are dropped by multiplication.
Dropping high degrees is a quotient by a graded ideal, so any identity checked
below the cap is exact, not approximate.

Coefficients are stored as integer numerators keyed by plain letter tuples
over one shared denominator (see ``scalars``); ``terms`` presents them as the
map Word -> Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import SparseCarrier, lowest_terms_sparse, over_common_denominator

__all__ = ["Word", "NCPoly", "CPoly"]


def _word_str(letters: tuple) -> str:
    return "".join(f"x{a}" for a in letters) or "1"


class Word:
    """A finite sequence of alphabet indices (positive integers)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(letters)
        for a in letters:
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"letters must be positive integers, got {a!r}")
        self.letters = letters

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __str__(self) -> str:
        return _word_str(self.letters)

    def __repr__(self) -> str:
        return f"Word({self.letters})"


def _render(num: dict, den: int, fmt) -> str:
    if not num:
        return "0"
    parts = []
    for w in sorted(num, key=lambda w: (len(w), w)):
        c = Fraction(num[w], den)
        body = fmt(w)
        if body == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c} {body}")
    return " + ".join(parts).replace("+ -", "- ")


class NCPoly(SparseCarrier):
    """Noncommutative polynomial: finitely supported map Word -> Fraction.

    ``num`` maps letter tuples to nonzero integer numerators over the shared
    denominator ``den``, in lowest terms, so equal polynomials store equal
    data.
    """

    __slots__ = ("cap",)

    _commutative = False

    def __init__(self, terms=None, cap: int | None = None):
        terms = dict(terms or {})
        nums, den = over_common_denominator(terms.values())
        num: dict = {}
        for w, c in zip(terms, nums):
            key = tuple(sorted(w.letters)) if self._commutative else w.letters
            if cap is None or len(key) <= cap:
                num[key] = num.get(key, 0) + c
        self.num, self.den = lowest_terms_sparse(num, den)
        self.cap = cap

    def _new(self, num: dict, den: int) -> "NCPoly":
        """A polynomial of this kind and cap, from canonical numerators."""
        p = object.__new__(type(self))
        p.num = num
        p.den = den
        p.cap = self.cap
        return p

    @classmethod
    def _of(cls, num: dict, den: int, cap: int | None) -> "NCPoly":
        """A polynomial from canonical numerators keyed by letter tuples: no
        zeros, lowest terms, no key longer than the cap, sorted keys for CPoly."""
        p = object.__new__(cls)
        p.num = num
        p.den = den
        p.cap = cap
        return p

    @property
    def terms(self) -> dict:
        den = self.den
        return {Word(w): Fraction(c, den) for w, c in self.num.items()}

    @classmethod
    def zero(cls, cap: int | None = None) -> "NCPoly":
        return cls({}, cap)

    @classmethod
    def one(cls, cap: int | None = None) -> "NCPoly":
        return cls({Word(): Fraction(1)}, cap)

    @classmethod
    def letter(cls, a: int, cap: int | None = None) -> "NCPoly":
        return cls({Word((a,)): Fraction(1)}, cap)

    @classmethod
    def from_word(cls, w: Word) -> "NCPoly":
        """The word w with coefficient 1, uncapped."""
        key = tuple(sorted(w.letters)) if cls._commutative else w.letters
        return cls._of({key: 1}, 1, None)

    def _match_shape(self, other: "NCPoly") -> None:
        if self.cap != other.cap:
            raise ValueError("degree caps differ")

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        self._match(other)
        return self._times(other)

    def _times(self, other: "NCPoly") -> "NCPoly":
        """self * other, for an operand ``_match`` has accepted.

        A zero operand comes back as it is and a constant one scales the
        other, so only two nonconstant polynomials reach the product loop.
        """
        a, b = self.num, other.num
        if not a:
            return self
        if not b:
            return other
        if len(a) == 1 and () in a:
            return other._scaled(a[()], self.den)
        if len(b) == 1 and () in b:
            return self._scaled(b[()], other.den)
        cap = self.cap
        commutative = self._commutative
        out: dict = {}
        get = out.get
        for u, cu in a.items():
            room = None if cap is None else cap - len(u)
            for v, cv in b.items():
                if room is not None and len(v) > room:
                    continue
                w = u + v
                if commutative:
                    w = tuple(sorted(w))
                out[w] = get(w, 0) + cu * cv
        return self._like(out, self.den * other.den)

    def __str__(self) -> str:
        return _render(self.num, self.den, _word_str)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class CPoly(NCPoly):
    """Commutative polynomial: monomials are multisets of letters.

    Keys are sorted letter tuples; products re-sort the concatenation.
    """

    __slots__ = ()

    _commutative = True

    def __str__(self) -> str:
        def fmt(w: tuple) -> str:
            if not w:
                return "1"
            parts = []
            for a in sorted(set(w)):
                m = w.count(a)
                parts.append(f"x{a}" if m == 1 else f"x{a}^{m}")
            return "".join(parts)

        return _render(self.num, self.den, fmt)
