"""Concrete Rota-Baxter algebra instances.

Four carriers, each with its operator and weight:

* sequences over a polynomial ring with the shifted partial-sum operator
  (weight 1), the standard algebra in commutative and noncommutative flavors;
* truncated Laurent elements with the pole projection (weight -1);
* square rational matrices with the upper-triangular projection (weight -1);
* univariate rational polynomials with integration from 0 (weight 0).

Sequence windows are exact: entry k of R reads only entries below k, so any
identity verified entrywise on a window of length W is exact there. Laurent
arithmetic refuses to truncate poles (exponents below the pole bound raise),
while exponents above the regular truncation bound are dropped; the bound is
sized per computation so nothing that could multiply back down is ever lost.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

from .algebra import RBAlgebra, first_failure
from .errors import ConfigError
from .polynomials import CPoly, NCPoly, Word
from .report import CheckResult
from .scalars import (
    DenseCarrier,
    SparseCarrier,
    draw_rationals,
    lowest_terms,
    lowest_terms_sparse,
    over_common_denominator,
    randint,
)

__all__ = [
    "RatMatrix",
    "LaurentElement",
    "SeqElement",
    "PolyFunction",
    "triangular_projection",
    "laurent_pole_projection",
    "standard_sum_operator",
    "riemann_integral",
    "polynomial_derivative",
    "finite_difference",
    "matrix_algebra",
    "laurent_algebra",
    "commutative_standard_algebra",
    "noncommutative_standard_algebra",
    "standard_generator",
    "integration_algebra",
    "summation_algebra",
    "elementary_symmetric_check",
    "nested_sum_encoding",
    "nested_sum_encoding_sum",
    "check_vector_field_prelie",
]


# ---------------------------------------------------------------------------
# rational matrices


class RatMatrix(DenseCarrier):
    """Immutable n x n rational matrix.

    Stored row-major as integer numerators ``num`` over one positive
    denominator ``den``, in lowest terms; ``rows`` gives the Fraction entries.
    """

    __slots__ = ("dim",)

    def __init__(self, rows):
        rows = [tuple(row) for row in rows]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        self.dim = n
        entries = [v for row in rows for v in row]
        self.num, self.den = lowest_terms(*over_common_denominator(entries))

    @classmethod
    def _of(cls, n: int, nums: list, den: int) -> "RatMatrix":
        m = object.__new__(cls)
        m.dim = n
        m.num, m.den = lowest_terms(nums, den)
        return m

    def _like(self, nums: list, den: int) -> "RatMatrix":
        return RatMatrix._of(self.dim, nums, den)

    def _match_shape(self, other: "RatMatrix") -> None:
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")

    @property
    def rows(self) -> tuple:
        n, num, den = self.dim, self.num, self.den
        return tuple(
            tuple(Fraction(c, den) for c in num[i : i + n]) for i in range(0, n * n, max(n, 1))
        )

    @classmethod
    def zeros(cls, n: int) -> "RatMatrix":
        return cls._of(n, [0] * (n * n), 1)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls._of(n, [int(r == c) for r in range(n) for c in range(n)], 1)

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "RatMatrix":
        """Matrix unit E_ij, 1-based indices."""
        return cls._of(n, [int((r, c) == (i - 1, j - 1)) for r in range(n) for c in range(n)], 1)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        self._match(other)
        n = self.dim
        a, b = self.num, other.num
        cols = [b[j::n] for j in range(n)]
        rows = range(0, n * n, max(n, 1))
        out = [sum(map(operator.mul, a[i : i + n], col)) for i in rows for col in cols]
        return RatMatrix._of(n, out, self.den * other.den)

    def __str__(self) -> str:
        rows = ("[" + ", ".join(str(v) for v in row) + "]" for row in self.rows)
        return "[" + ", ".join(rows) + "]"

    __repr__ = __str__


def triangular_projection(m: RatMatrix) -> RatMatrix:
    """Keep entries on or above the diagonal, zero the rest.

    Idempotent; the complementary projection lands in the strictly lower
    triangular subalgebra, which makes this a weight -1 Rota-Baxter operator.
    """
    n = m.dim
    return m._like([c if k // n <= k % n else 0 for k, c in enumerate(m.num)], m.den)


def matrix_algebra(dim: int = 3) -> RBAlgebra:
    basis = tuple(
        RatMatrix.unit(dim, i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)
    )

    def rand(rng: random.Random) -> RatMatrix:
        return RatMatrix._of(dim, *draw_rationals(rng, dim * dim, 3, 3))

    return RBAlgebra(
        name=f"matrix{dim}",
        weight=Fraction(-1),
        zero=RatMatrix.zeros(dim),
        one=RatMatrix.identity(dim),
        rb=triangular_projection,
        commutative=False,
        basis=basis,
        random_element=rand,
    )


# ---------------------------------------------------------------------------
# truncated Laurent elements


class LaurentElement(SparseCarrier):
    """Map exponent -> Fraction on the range [-pole_bound, trunc].

    Multiplication drops exponents above ``trunc`` (harmless for the checks,
    which only ever compare what both sides keep) and raises ``ConfigError``
    for exponents below ``-pole_bound``: losing a pole would falsify the
    identities, so the bound must be sized up instead. Stored as nonzero
    integer numerators ``num`` over one denominator ``den``, in lowest terms;
    ``coeffs`` gives the Fraction map.
    """

    __slots__ = ("pole_bound", "trunc")

    def __init__(self, coeffs, pole_bound: int, trunc: int):
        if pole_bound < 0 or trunc < 0:
            raise ValueError("bounds must be nonnegative")
        self.pole_bound = pole_bound
        self.trunc = trunc
        coeffs = dict(coeffs)
        nums, den = over_common_denominator(coeffs.values())
        self.num, self.den = self._bounded(dict(zip(coeffs, nums)), den)

    def _bounded(self, num: dict, den: int) -> tuple:
        """Numerators at any exponents, cut to this element's range, in lowest terms.

        Exponents above ``trunc`` are dropped; a nonzero one below
        ``-pole_bound`` raises ``ConfigError``.
        """
        clean = {}
        for e, c in num.items():
            if c == 0:
                continue
            if e < -self.pole_bound:
                raise ConfigError(
                    f"exponent {e} below pole bound -{self.pole_bound}; enlarge the bound"
                )
            if e > self.trunc:
                continue
            clean[e] = c
        return lowest_terms_sparse(clean, den)

    def draw(self, rng: random.Random, exponents) -> "LaurentElement":
        """A random element with this one's bounds and range rules.

        Each exponent gets randint(-3, 3) / randint(1, 2), drawn as integers
        (``scalars.draw_rationals``).
        """
        nums, den = draw_rationals(rng, len(exponents), 3, 2)
        return self._new(*self._bounded(dict(zip(exponents, nums)), den))

    def _new(self, num: dict, den: int) -> "LaurentElement":
        """An element with this one's bounds, from canonical in-range numerators."""
        x = object.__new__(LaurentElement)
        x.num = num
        x.den = den
        x.pole_bound = self.pole_bound
        x.trunc = self.trunc
        return x

    @property
    def coeffs(self) -> dict:
        den = self.den
        return {e: Fraction(c, den) for e, c in self.num.items()}

    def _match_shape(self, other: "LaurentElement") -> None:
        if (self.pole_bound, self.trunc) != (other.pole_bound, other.trunc):
            raise ValueError("Laurent bounds differ")

    def __mul__(self, other: "LaurentElement") -> "LaurentElement":
        self._match(other)
        out: dict = {}
        get = out.get
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = e1 + e2
                if e > self.trunc:
                    continue
                if e < -self.pole_bound:
                    raise ConfigError(
                        f"exponent {e} below pole bound -{self.pole_bound}; enlarge the bound"
                    )
                out[e] = get(e, 0) + c1 * c2
        return self._like(out, self.den * other.den)

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for e in sorted(self.num):
            c = Fraction(self.num[e], self.den)
            if e == 0:
                parts.append(str(c))
            else:
                base = "eps" if e == 1 else f"eps^{e}"
                parts.append(base if c == 1 else f"{c} {base}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def laurent_pole_projection(x: LaurentElement) -> LaurentElement:
    """Keep the strictly negative exponents: the divergent part."""
    return x._like({e: c for e, c in x.num.items() if e < 0}, x.den)


def laurent_algebra(
    pole_bound: int = 4, trunc: int = 6, basis_exponents=range(-2, 4)
) -> RBAlgebra:
    basis = tuple(LaurentElement({e: 1}, pole_bound, trunc) for e in basis_exponents)
    exps = list(basis_exponents)
    zero = LaurentElement({}, pole_bound, trunc)

    def rand(rng: random.Random) -> LaurentElement:
        return zero.draw(rng, exps)

    return RBAlgebra(
        name=f"laurent[{pole_bound},{trunc}]",
        weight=Fraction(-1),
        zero=zero,
        one=LaurentElement({0: 1}, pole_bound, trunc),
        rb=laurent_pole_projection,
        commutative=True,
        basis=basis,
        random_element=rand,
    )


# ---------------------------------------------------------------------------
# sequence algebras (the standard algebra and the scalar summation algebra)


class SeqElement(DenseCarrier):
    """Finite window of ring values with pointwise operations.

    A window of rationals stores integer numerators ``num`` over one
    denominator ``den``, in lowest terms; a window of polynomials stores the
    ``CPoly`` or ``NCPoly`` entries themselves as ``num``, over ``den`` = 1.
    ``entries`` gives the Fractions, or the polynomials.

    The constructor accepts only rationals, or polynomials of one class and
    one cap, so a window operation checks the length and slot 0 once and
    then runs the polynomials' trusted kernels slot by slot.
    """

    __slots__ = ()

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty window")
        first = entries[0]
        if isinstance(first, NCPoly):
            kind, cap = type(first), first.cap
            if any(type(e) is not kind or e.cap != cap for e in entries):
                raise ValueError("window entries must be polynomials of one class and cap")
            self.num, self.den = entries, 1
        elif all(isinstance(e, (int, Fraction)) for e in entries):
            self.num, self.den = lowest_terms(*over_common_denominator(entries))
        else:
            raise ValueError("window entries must be rationals or polynomials")

    @staticmethod
    def _window(entries: list) -> "SeqElement":
        """A polynomial window from a list of entries of one class and cap.

        A list, not an iterator: tuple() resizes what it builds from an
        iterator, which fills CPython's tuple free lists and raises peak memory.
        """
        s = object.__new__(SeqElement)
        s.num = tuple(entries)
        s.den = 1
        return s

    def _like(self, nums: list, den: int) -> "SeqElement":
        s = object.__new__(SeqElement)
        s.num, s.den = lowest_terms(nums, den)  # polynomial windows: den 1, no gcd
        return s

    def _match_shape(self, other: "SeqElement") -> None:
        a, b = self.num[0], other.num[0]
        if (
            len(self.num) != len(other.num)
            or type(a) is not type(b)
            or (type(a) is not int and a.cap != b.cap)
        ):
            raise ValueError("window lengths, entry kinds or degree caps differ")

    @property
    def entries(self) -> tuple:
        num, den = self.num, self.den
        return tuple(Fraction(c, den) for c in num) if isinstance(num[0], int) else num

    def _plus(self, other: "SeqElement", sign: int = 1) -> "SeqElement":
        if type(self.num[0]) is int:
            return DenseCarrier._plus(self, other, sign)
        sums = map(NCPoly._plus, self.num, other.num, itertools.repeat(sign))
        return SeqElement._window(list(sums))

    def _scaled(self, n: int, d: int) -> "SeqElement":
        if type(self.num[0]) is int:
            return DenseCarrier._scaled(self, n, d)
        return SeqElement._window([p._scaled(n, d) for p in self.num])

    def __mul__(self, other: "SeqElement") -> "SeqElement":
        self._match(other)
        a, b = self.num, other.num
        if type(a[0]) is int:
            return self._like(list(map(operator.mul, a, b)), self.den * other.den)
        return SeqElement._window(list(map(NCPoly._times, a, b)))

    def __pow__(self, n: int) -> "SeqElement":
        if n < 0:
            raise ValueError("negative power")
        out = self
        if n == 0:
            raise ValueError("need the ambient unit for power 0")
        for _ in range(n - 1):
            out = out * self
        return out

    __hash__ = None

    def __str__(self) -> str:
        return "(" + "; ".join(str(a) for a in self.entries) + ")"

    __repr__ = __str__


def standard_sum_operator(s: SeqElement) -> SeqElement:
    """Entry k of the output is the sum of input entries below k.

    Entry 0 is zero. Entry k reads only entries < k, which is what makes a
    finite window exact. Weight 1.
    """
    num = s.num
    if type(num[0]) is int:
        return s._like(list(itertools.accumulate(num[:-1], operator.add, initial=0)), s.den)
    sums = itertools.accumulate(num[:-1], NCPoly._plus, initial=0 * num[0])
    return SeqElement._window(list(sums))


def finite_difference(s: SeqElement) -> SeqElement:
    """Forward difference f(n+1) - f(n); the window shrinks by one."""
    num = s.num
    if len(num) < 2:
        raise ValueError("empty window")
    return s._like(list(map(operator.sub, num[1:], num[:-1])), s.den)


def _standard_algebra(window: int, cap: int, poly, kind: str) -> RBAlgebra:
    unit, nil = poly.one(cap), poly.zero(cap)
    one = SeqElement([unit] * window)
    zero = SeqElement([nil] * window)
    # scalar indicator sequences: a 1 at one slot, 0 elsewhere
    basis = tuple(
        SeqElement([unit if i == k else nil for i in range(window)]) for k in range(window)
    )
    top = max(window - 1, 1)
    letters = {k: poly.letter(k, cap) for k in range(1, top + 1)}

    # sparse draws: a constant part plus letter terms at two slots. Laws are
    # multilinear, so this spans the same coverage while keeping iterated
    # partial sums from piling up terms quadratically. A letter coefficient
    # is drawn as Fraction(randint(-2, 2), randint(1, 2)) would draw it.
    def rand(rng: random.Random) -> SeqElement:
        entries = [randint(rng, -2, 2) * unit] * window
        for _ in range(2):
            slot = randint(rng, 1, top)
            n = randint(rng, -2, 2)
            entries[slot] = entries[slot] + letters[slot]._scaled(n, randint(rng, 1, 2))
        return SeqElement._window(entries)

    return RBAlgebra(
        name=f"standard-{kind}[W={window}]",
        weight=Fraction(1),
        zero=zero,
        one=one,
        rb=standard_sum_operator,
        commutative=(kind == "comm"),
        basis=basis,
        random_element=rand,
    )


def commutative_standard_algebra(window: int = 10, cap: int = 8) -> RBAlgebra:
    return _standard_algebra(window, cap, CPoly, "comm")


def noncommutative_standard_algebra(window: int = 10, cap: int = 8) -> RBAlgebra:
    return _standard_algebra(window, cap, NCPoly, "nc")


def standard_generator(window: int = 10, cap: int = 8, kind: str = "comm") -> SeqElement:
    """The sequence (0, x_1, x_2, ...): slot k carries the k-th letter.

    Iterated images of this element realize the elementary symmetric
    functions: R^(n) at slot k is e_n(x_1 .. x_{k-1}).
    """
    poly = CPoly if kind == "comm" else NCPoly
    return SeqElement(
        [poly.zero(cap)] + [poly.letter(k, cap) for k in range(1, window)]
    )


def summation_algebra(window: int = 10) -> RBAlgebra:
    one = SeqElement([Fraction(1)] * window)
    zero = SeqElement([Fraction(0)] * window)
    basis = tuple(
        SeqElement([Fraction(1 if i == k else 0) for i in range(window)])
        for k in range(window)
    )

    def rand(rng: random.Random) -> SeqElement:
        return zero._like(*draw_rationals(rng, window, 4, 3))

    return RBAlgebra(
        name=f"summation[W={window}]",
        weight=Fraction(1),
        zero=zero,
        one=one,
        rb=standard_sum_operator,
        commutative=True,
        basis=basis,
        random_element=rand,
    )


# ---------------------------------------------------------------------------
# polynomial functions with exact integration


class PolyFunction(DenseCarrier):
    """Univariate polynomial in t over the rationals, coefficient index = degree.

    The cap bounds the representable degree; arithmetic that would exceed it
    raises ConfigError instead of silently dropping terms. Stored as integer
    numerators ``num`` (no trailing zeros) over one denominator ``den``, in
    lowest terms; ``coeffs`` gives the Fraction coefficients.
    """

    __slots__ = ("cap",)

    def __init__(self, coeffs, cap: int = 24):
        self._settle(*over_common_denominator(coeffs), cap)

    def _settle(self, nums, den: int, cap: int) -> None:
        size = len(nums)
        while size and nums[size - 1] == 0:
            size -= 1
        if size - 1 > cap:
            raise ConfigError(f"degree {size - 1} exceeds cap {cap}")
        self.num, self.den = lowest_terms(nums[:size], den)
        self.cap = cap

    def _like(self, nums, den: int) -> "PolyFunction":
        p = object.__new__(PolyFunction)
        p._settle(nums, den, self.cap)
        return p

    @property
    def coeffs(self) -> tuple:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

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
        return len(self.num) - 1  # -1 for the zero polynomial

    def _match_shape(self, other: "PolyFunction") -> None:
        if self.cap != other.cap:
            raise ValueError("degree caps differ")

    def __mul__(self, other: "PolyFunction") -> "PolyFunction":
        self._match(other)
        a, b = self.num, other.num
        if not a or not b:
            return self._like([], 1)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return self._like(out, self.den * other.den)

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for n in range(len(self.num) - 1, -1, -1):
            if self.num[n] == 0:
                continue
            c = Fraction(self.num[n], self.den)
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
    top = math.lcm(*range(1, len(p.num) + 1))
    return p._like([0] + [c * (top // (n + 1)) for n, c in enumerate(p.num)], p.den * top)


def polynomial_derivative(p: PolyFunction) -> PolyFunction:
    return p._like([n * c for n, c in enumerate(p.num)][1:], p.den)


def integration_algebra(cap: int = 24) -> RBAlgebra:
    basis = tuple(PolyFunction.monomial(k, cap) for k in range(7))
    zero = PolyFunction.zero(cap)

    def rand(rng: random.Random) -> PolyFunction:
        return zero._like(*draw_rationals(rng, 4, 3, 3))

    return RBAlgebra(
        name=f"integration[cap={cap}]",
        weight=Fraction(0),
        zero=zero,
        one=PolyFunction.one(cap),
        rb=riemann_integral,
        commutative=True,
        basis=basis,
        random_element=rand,
    )


# ---------------------------------------------------------------------------
# symmetric-function correspondences in the standard algebra


def _iterated_rb(alg: RBAlgebra, x, n: int):
    """R^(n): R(x), R(R(x)x), R(R(R(x)x)x), ..."""
    acc = alg.rb(x)
    for _ in range(n - 1):
        acc = alg.rb(acc * x)
    return acc


def elementary_symmetric_check(
    n: int, k: int, window: int = 10, cap: int = 8
) -> CheckResult:
    """Iterated partial sums realize e_n; powers realize power sums.

    In the commutative standard algebra, slot k of R^(n) applied to the
    generator equals e_n(x_1 .. x_{k-1}) and slot k of R(x^n) equals
    x_1^n + ... + x_{k-1}^n. The noncommutative variant replaces e_n by the
    sum over strictly increasing index words.
    """
    if n < 1:
        raise ConfigError("order must be >= 1")
    if k >= window:
        raise ConfigError(f"slot {k} needs window > {k}")
    if n > cap:
        raise ConfigError(f"order {n} exceeds degree cap {cap}")

    alg = commutative_standard_algebra(window, cap)
    gen = standard_generator(window, cap, "comm")

    def laws(n, k):
        increasing = {Word(c): Fraction(1) for c in itertools.combinations(range(1, k), n)}
        yield f"e_{n}", _iterated_rb(alg, gen, n).entries[k], CPoly(increasing, cap)

        got = alg.rb(gen**n).entries[k]
        yield "power-sum", got, CPoly({Word((i,) * n): Fraction(1) for i in range(1, k)}, cap)

        nalg = noncommutative_standard_algebra(window, cap)
        ngen = standard_generator(window, cap, "nc")
        yield "ordered-words", _iterated_rb(nalg, ngen, n).entries[k], NCPoly(increasing, cap)

    bad = first_failure(alg.name, [(n, k)], laws, "nk")
    return CheckResult.of(f"standard-symmetric/n={n}/k={k}", "Eq. (shuffle)", bad)


def nested_sum_encoding(alg: RBAlgebra, generator: SeqElement, word: Word) -> SeqElement:
    """Encode a word as nested sums: (a_1 .. a_m) -> R(z^a_1 R(z^a_2 ...)).

    With z the generator sequence this is the standard realization of the
    quasi-shuffle algebra: encoding is multiplicative from words with the
    quasi-shuffle product to the carrier product.
    """
    acc = alg.one
    for a in reversed(word.letters):
        acc = alg.rb((generator**a) * acc)
    return acc


def nested_sum_encoding_sum(alg: RBAlgebra, generator: SeqElement, wordsum: NCPoly) -> SeqElement:
    acc = alg.zero
    for w, c in wordsum.terms.items():
        acc = acc + c * nested_sum_encoding(alg, generator, w)
    return acc


# ---------------------------------------------------------------------------
# the vector-field pre-Lie product f |> g = f * g'


def check_vector_field_prelie(max_degree: int = 4) -> CheckResult:
    """Polynomial vector fields under f |> g := f * dg/dt are left pre-Lie.

    On monomials the product is t^n |> t^m = m t^(n+m-1); checked together
    with the left pre-Lie law over all monomial triples up to max_degree.
    """
    cap = 3 * max_degree + 2
    mono = [PolyFunction.monomial(i, cap) for i in range(max_degree + 1)]

    def vf(f: PolyFunction, g: PolyFunction) -> PolyFunction:
        return f * polynomial_derivative(g)

    def monomial_law(n, m):
        got = vf(mono[n], mono[m])
        want = (
            PolyFunction.zero(cap)
            if m == 0
            else m * PolyFunction.monomial(n + m - 1, cap)
        )
        yield "t^n|>t^m=m t^(n+m-1)", got, want

    def left_prelie(f, g, h):
        lhs = vf(vf(f, g), h) - vf(f, vf(g, h))
        yield "left-prelie", lhs, vf(vf(g, f), h) - vf(g, vf(f, h))

    model = f"vector-fields[deg<={max_degree}]"
    degrees = list(itertools.product(range(max_degree + 1), repeat=2))
    bad = first_failure(model, degrees, monomial_law, "nm") or first_failure(
        model, list(itertools.product(mono, repeat=3)), left_prelie, "fgh"
    )
    return CheckResult.of(f"vector-field-prelie/deg<={max_degree}", "Eq. (pL)", bad)
