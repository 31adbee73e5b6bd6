"""Reference carriers: the plain ``Fraction`` implementations.

These are the carrier kernels as they stood before the integer-numerator
rewrite, kept as the oracle for the differential tests in
``test_kernels.py``: the fast carriers must agree with them on every
operation and render identically. The polynomials have lost the degree cap
the package no longer has. They are not part of the package.
"""

from __future__ import annotations

from fractions import Fraction

from rbx.errors import ConfigError


class Word:
    """A finite sequence of alphabet indices (positive integers)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(letters)
        for a in letters:
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"letters must be positive integers, got {a!r}")
        self.letters = letters

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def sort_key(self):
        return (len(self.letters), self.letters)

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "".join(f"x{a}" for a in self.letters)

    def __repr__(self) -> str:
        return f"Word({self.letters})"


def _clean(terms: dict) -> dict:
    return {w: c for w, c in terms.items() if c != 0}


def _render(terms: dict, fmt) -> str:
    if not terms:
        return "0"
    parts = []
    for w in sorted(terms):
        c = terms[w]
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


class NCPoly:
    """Noncommutative polynomial: finitely supported map Word -> Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _clean(dict(terms or {}))

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls({})

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({Word(): Fraction(1)})

    @classmethod
    def letter(cls, a: int) -> "NCPoly":
        return cls({Word((a,)): Fraction(1)})

    @classmethod
    def from_word(cls, w: Word, coeff=1) -> "NCPoly":
        return cls({w: Fraction(coeff)})

    def _match(self, other: "NCPoly") -> None:
        if type(self) is not type(other):
            raise ValueError("polynomial kinds differ")

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._match(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return type(self)(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return type(self)({w: -c for w, c in self.terms.items()})

    def __rmul__(self, scalar) -> "NCPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        q = Fraction(scalar)
        return type(self)({w: q * c for w, c in self.terms.items()})

    def _combine(self, u: Word, v: Word) -> Word:
        return Word(u.letters + v.letters)

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        self._match(other)
        out: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = self._combine(u, v)
                out[w] = out.get(w, Fraction(0)) + cu * cv
        return type(self)(out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        acc = type(self).one()
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, w: Word) -> Fraction:
        return self.terms.get(w, Fraction(0))

    def __str__(self) -> str:
        return _render(self.terms, str)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class CPoly(NCPoly):
    """Commutative polynomial: monomials are multisets of letters."""

    __slots__ = ()

    def __init__(self, terms=None):
        folded: dict = {}
        for w, c in dict(terms or {}).items():
            key = Word(sorted(w.letters))
            folded[key] = folded.get(key, Fraction(0)) + c
        super().__init__(folded)

    def _combine(self, u: Word, v: Word) -> Word:
        return Word(sorted(u.letters + v.letters))

    def __str__(self) -> str:
        def fmt(w: Word) -> str:
            if not w.letters:
                return "1"
            parts = []
            for a in sorted(set(w.letters)):
                m = w.letters.count(a)
                parts.append(f"x{a}" if m == 1 else f"x{a}^{m}")
            return "".join(parts)

        return _render(self.terms, fmt)


class RatMatrix:
    """Immutable n x n matrix of Fractions."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        n = len(self.rows)
        if any(len(row) != n for row in self.rows):
            raise ValueError("matrix must be square")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @classmethod
    def zeros(cls, n: int) -> "RatMatrix":
        return cls([[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "RatMatrix":
        """Matrix unit E_ij, 1-based indices."""
        return cls([[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(n)] for r in range(n)])

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-a for a in row] for row in self.rows])

    def __rmul__(self, scalar) -> "RatMatrix":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        q = Fraction(scalar)
        return RatMatrix([[q * a for a in row] for row in self.rows])

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        n = self.dim
        if other.dim != n:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __str__(self) -> str:
        return "[" + ", ".join("[" + ", ".join(str(v) for v in row) + "]" for row in self.rows) + "]"

    __repr__ = __str__


def triangular_projection(m: RatMatrix) -> RatMatrix:
    """Keep entries on or above the diagonal, zero the rest.

    Idempotent; the complementary projection lands in the strictly lower
    triangular subalgebra, which makes this a weight -1 Rota-Baxter operator.
    """
    return RatMatrix(
        [[v if i <= j else 0 for j, v in enumerate(row)] for i, row in enumerate(m.rows)]
    )


class LaurentElement:
    """Map exponent -> Fraction on the range [-pole_bound, trunc].

    Multiplication drops exponents above ``trunc`` (harmless for the checks,
    which only ever compare what both sides keep) and raises ``ConfigError``
    for exponents below ``-pole_bound``: losing a pole would falsify the
    identities, so the bound must be sized up instead.
    """

    __slots__ = ("coeffs", "pole_bound", "trunc")

    def __init__(self, coeffs, pole_bound: int, trunc: int):
        if pole_bound < 0 or trunc < 0:
            raise ValueError("bounds must be nonnegative")
        clean = {}
        for e, c in dict(coeffs).items():
            c = Fraction(c)
            if c == 0:
                continue
            if e < -pole_bound:
                raise ConfigError(
                    f"exponent {e} below pole bound -{pole_bound}; enlarge the bound"
                )
            if e > trunc:
                continue
            clean[e] = c
        self.coeffs = clean
        self.pole_bound = pole_bound
        self.trunc = trunc

    def _match(self, other: "LaurentElement") -> None:
        if (self.pole_bound, self.trunc) != (other.pole_bound, other.trunc):
            raise ValueError("Laurent bounds differ")

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        self._match(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentElement(out, self.pole_bound, self.trunc)

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        return self + (-other)

    def __neg__(self) -> "LaurentElement":
        return LaurentElement(
            {e: -c for e, c in self.coeffs.items()}, self.pole_bound, self.trunc
        )

    def __rmul__(self, scalar) -> "LaurentElement":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        q = Fraction(scalar)
        return LaurentElement(
            {e: q * c for e, c in self.coeffs.items()}, self.pole_bound, self.trunc
        )

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        self._match(other)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e > self.trunc:
                    continue
                if e < -self.pole_bound:
                    raise ConfigError(
                        f"exponent {e} below pole bound -{self.pole_bound}; enlarge the bound"
                    )
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentElement(out, self.pole_bound, self.trunc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentElement):
            return NotImplemented
        self._match(other)
        return self.coeffs == other.coeffs

    __hash__ = None

    def is_regular(self) -> bool:
        return all(e >= 0 for e in self.coeffs)

    def is_polar(self) -> bool:
        return all(e < 0 for e in self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            else:
                base = "eps" if e == 1 else f"eps^{e}"
                parts.append(base if c == 1 else f"{c} {base}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def laurent_pole_projection(x: LaurentElement) -> LaurentElement:
    """Keep the strictly negative exponents: the divergent part."""
    return LaurentElement(
        {e: c for e, c in x.coeffs.items() if e < 0}, x.pole_bound, x.trunc
    )


class SeqElement:
    """Finite window of ring values with pointwise operations."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)
        if not self.entries:
            raise ValueError("empty window")

    def _match(self, other: "SeqElement") -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError("window lengths differ")

    def __add__(self, other: "SeqElement") -> "SeqElement":
        self._match(other)
        return SeqElement(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "SeqElement") -> "SeqElement":
        self._match(other)
        return SeqElement(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "SeqElement":
        return SeqElement(-a for a in self.entries)

    def __rmul__(self, scalar) -> "SeqElement":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        q = Fraction(scalar)
        return SeqElement(q * a for a in self.entries)

    def __mul__(self, other: "SeqElement") -> "SeqElement":
        self._match(other)
        return SeqElement(a * b for a, b in zip(self.entries, other.entries))

    def __pow__(self, n: int) -> "SeqElement":
        if n < 0:
            raise ValueError("negative power")
        out = self
        if n == 0:
            raise ValueError("need the ambient unit for power 0")
        for _ in range(n - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeqElement):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __str__(self) -> str:
        return "(" + "; ".join(str(a) for a in self.entries) + ")"

    __repr__ = __str__


def standard_sum_operator(s: SeqElement) -> SeqElement:
    """Entry k of the output is the sum of input entries below k.

    Entry 0 is zero. Entry k reads only entries < k, which is what makes a
    finite window exact. Weight 1.
    """
    zero = Fraction(0) * s.entries[0]
    out = []
    acc = zero
    for a in s.entries:
        out.append(acc)
        acc = acc + a
    return SeqElement(out)


class PolyFunction:
    """Univariate polynomial in t over Fraction, coefficient index = degree.

    The cap bounds the representable degree; arithmetic that would exceed it
    raises ConfigError instead of silently dropping terms.
    """

    __slots__ = ("coeffs", "cap")

    def __init__(self, coeffs, cap: int = 24):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) - 1 > cap:
            raise ConfigError(f"degree {len(coeffs) - 1} exceeds cap {cap}")
        self.coeffs = tuple(coeffs)
        self.cap = cap

    @classmethod
    def zero(cls, cap: int = 24) -> "PolyFunction":
        return cls([], cap)

    @classmethod
    def one(cls, cap: int = 24) -> "PolyFunction":
        return cls([1], cap)

    @classmethod
    def monomial(cls, n: int, cap: int = 24) -> "PolyFunction":
        return cls([0] * n + [1], cap)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def _match(self, other: "PolyFunction") -> None:
        if self.cap != other.cap:
            raise ValueError("degree caps differ")

    def __add__(self, other: "PolyFunction") -> "PolyFunction":
        self._match(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PolyFunction(out, self.cap)

    def __sub__(self, other: "PolyFunction") -> "PolyFunction":
        return self + (-other)

    def __neg__(self) -> "PolyFunction":
        return PolyFunction([-c for c in self.coeffs], self.cap)

    def __rmul__(self, scalar) -> "PolyFunction":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        q = Fraction(scalar)
        return PolyFunction([q * c for c in self.coeffs], self.cap)

    def __mul__(self, other: "PolyFunction") -> "PolyFunction":
        self._match(other)
        if not self.coeffs or not other.coeffs:
            return PolyFunction([], self.cap)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyFunction(out, self.cap)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyFunction):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for n in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[n]
            if c == 0:
                continue
            if n == 0:
                parts.append(str(c))
            else:
                base = "t" if n == 1 else f"t^{n}"
                parts.append(base if c == 1 else f"{c} {base}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def riemann_integral(p: PolyFunction) -> PolyFunction:
    """Integration from 0: t^n -> t^(n+1)/(n+1). Weight 0."""
    if p.degree + 1 > p.cap:
        raise ConfigError(f"integral degree {p.degree + 1} exceeds cap {p.cap}")
    return PolyFunction(
        [Fraction(0)] + [c / (n + 1) for n, c in enumerate(p.coeffs)], p.cap
    )
