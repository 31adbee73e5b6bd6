"""Words over a positive-integer alphabet and polynomial coefficients on them.

``NCPoly`` is the free associative algebra: finitely supported maps from words
to rationals with concatenation product. ``CPoly`` is its commutative quotient,
keyed by sorted words (monomials read as multisets of letters). Every word
is kept, however long: there is no bound on degree and no truncation.

Coefficients are stored as integer numerators keyed by plain letter tuples
over one shared denominator (see ``scalars``); ``terms`` presents them as the
map Word -> Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import SparseCarrier, _reduced, lowest_terms_sparse, over_common_denominator


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


def multiply_maps(a: dict, b: dict, commutative: bool) -> dict:
    """The product of two numerator maps without zeros, as a map without zeros.

    Commutative products sort their keys. A zero operand gives the zero map
    and a constant one, which commutes with everything, scales the other, so
    only two nonconstant maps reach the product loop.
    """
    if not a or not b:
        return {}
    if len(b) == 1 and () in b:
        a, b = b, a
    if len(a) == 1 and () in a:
        c = a[()]
        if len(b) == 1 and () in b:
            return {(): c * b[()]}
        return {k: c * v for k, v in b.items()}
    out: dict = {}
    get = out.get
    for u, cu in a.items():
        for v, cv in b.items():
            w = u + v
            if commutative:
                w = tuple(sorted(w))
            out[w] = get(w, 0) + cu * cv
    return {w: c for w, c in out.items() if c}


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

    __slots__ = ()

    _commutative = False

    def __init__(self, terms=None):
        terms = dict(terms or {})
        nums, den = over_common_denominator(terms.values())
        num: dict = {}
        for w, c in zip(terms, nums):
            key = tuple(sorted(w.letters)) if self._commutative else w.letters
            num[key] = num.get(key, 0) + c
        self.num, self.den = lowest_terms_sparse(num, den)

    @classmethod
    def _of(cls, num: dict, den: int) -> "NCPoly":
        """A polynomial from canonical numerators keyed by letter tuples: no
        zeros, lowest terms, sorted keys for CPoly."""
        p = object.__new__(cls)
        p.num = num
        p.den = den
        return p

    _new = _of

    @property
    def terms(self) -> dict:
        den = self.den
        return {Word(w): Fraction(c, den) for w, c in self.num.items()}

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls._of({}, 1)

    @classmethod
    def one(cls) -> "NCPoly":
        return cls._of({(): 1}, 1)

    @classmethod
    def letter(cls, a: int) -> "NCPoly":
        return cls.from_word(Word((a,)))

    @classmethod
    def from_word(cls, w: Word) -> "NCPoly":
        """The word w with coefficient 1."""
        key = tuple(sorted(w.letters)) if cls._commutative else w.letters
        return cls._of({key: 1}, 1)

    def _match_shape(self, other: "NCPoly") -> None:
        """Polynomials of one class all have one shape."""

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        self._match(other)
        num = multiply_maps(self.num, other.num, self._commutative)
        return self._new(*_reduced(num, self.den * other.den))

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
