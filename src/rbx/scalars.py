"""Exact rational scalars and Bernoulli numbers.

The ground field is represented by ``fractions.Fraction``: arbitrary-precision
numerator over positive denominator, always in lowest terms, so equality is
canonical-form equality.

Carriers store their coefficients more cheaply, as integer numerators over
one shared positive denominator. The helpers at the end of this module keep
that form canonical (lowest terms, no stored zeros in sparse maps), so
carrier equality stays plain equality of the stored integers, and the bases
``DenseCarrier`` (a numerator tuple) and ``SparseCarrier`` (a numerator map)
hold the linear arithmetic and equality every carrier shares.

Bernoulli numbers follow the x/(e^x - 1) convention, i.e. B_1 = -1/2.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

__all__ = ["bernoulli", "parse_rational"]


def _bernoulli_table(n_max: int) -> tuple:
    """B_0 .. B_{n_max} from the defining recurrence

        sum_{k=0}^{n} C(n+1, k) * B_k = 0   for n >= 1,

    with B_0 = 1. Under this convention B_1 = -1/2 and B_n = 0 for odd n >= 3.
    """
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(math.comb(n + 1, k) * values[k] for k in range(n))
        values.append(Fraction(-acc, n + 1))
    return tuple(values)


_TABLE = _bernoulli_table(32)


def bernoulli(n: int) -> Fraction:
    """Return B_n (convention B_1 = -1/2) for 0 <= n <= 32.

    >>> bernoulli(0), bernoulli(1), bernoulli(2)
    (Fraction(1, 1), Fraction(-1, 2), Fraction(1, 6))
    """
    if not 0 <= n < len(_TABLE):
        raise IndexError(f"Bernoulli index {n} outside table bound {len(_TABLE) - 1}")
    return _TABLE[n]


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational; reject anything else."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


# ---------------------------------------------------------------------------
# integer numerators over a shared denominator


def over_common_denominator(values) -> tuple:
    """Rationals -> (list of integer numerators, least common denominator)."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(q.denominator for q in fracs))
    return [q.numerator * (den // q.denominator) for q in fracs], den


def randint(rng, a: int, b: int) -> int:
    """``rng.randint(a, b)`` for a ``random.Random``, without its call layers.

    This is CPython's own algorithm: draw ``getrandbits(k)``, with k the bit
    length of b - a + 1, until the draw is below b - a + 1. So it returns the
    same value and leaves the generator in the same state.
    """
    n = b - a + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def draw_rationals(rng, count: int, top: int, den_top: int) -> tuple:
    """``count`` draws of randint(-top, top) / randint(1, den_top), as
    ``over_common_denominator`` gives them, with no ``Fraction`` built.

    The generator is called in the same order as by
    ``Fraction(rng.randint(-top, top), rng.randint(1, den_top))``, so a seed
    yields the same element either way.
    """
    pairs = []
    for _ in range(count):
        p = randint(rng, -top, top)
        q = randint(rng, 1, den_top)
        g = math.gcd(p, q)
        pairs.append((p // g, q // g))
    den = math.lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def lowest_terms(nums: list, den: int) -> tuple:
    """Divide numerators and positive denominator by their common gcd.

    The zero vector comes out over denominator 1.
    """
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
    return tuple(nums), den


def lowest_terms_sparse(num: dict, den: int) -> tuple:
    """Like ``lowest_terms`` for a map of numerators; zero entries are dropped."""
    return _reduced({k: c for k, c in num.items() if c}, den)


def _reduced(num: dict, den: int) -> tuple:
    """``lowest_terms_sparse`` for a map that holds no zeros."""
    if not num:
        return num, 1
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
    return num, den


def _over_lcm(da: int, db: int) -> tuple:
    """Multipliers bringing denominators da and db to their lcm, and the lcm."""
    g = math.gcd(da, db)
    return db // g, da // g, da * (db // g)


class _Carrier:
    """What both carrier bases share: the operand check, equality, and ``+``,
    ``-`` and scalar ``*``, which check their operand once and then run the
    trusted kernels ``_plus`` and ``_scaled``."""

    __slots__ = ("num", "den")

    def _match(self, other) -> None:
        """Raise ``ValueError`` unless other has this class and shape."""
        if type(other) is not type(self):
            raise ValueError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        self._match_shape(other)

    def __add__(self, other):
        self._match(other)
        return self._plus(other, 1)

    def __sub__(self, other):
        self._match(other)
        return self._plus(other, -1)

    def __rmul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self._scaled(scalar.numerator, scalar.denominator)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        self._match_shape(other)
        return self.den == other.den and self.num == other.num


class DenseCarrier(_Carrier):
    """Arithmetic shared by carriers stored as a numerator tuple over ``den``.

    A subclass adds its shape (a dimension, a degree cap) and two hooks:
    ``_like(nums, den)`` builds an element of its own shape from unreduced
    numerators, reducing them to lowest terms, and ``_match_shape(other)``
    raises ``ValueError`` when the shapes differ; ``_match`` checks the class
    first. Shorter numerator tuples are read as padded with zeros.
    """

    __slots__ = ()

    def _plus(self, other, sign: int = 1):
        """self + sign * other, for an operand ``_match`` has accepted."""
        a, b, da, db = self.num, other.num, self.den, other.den
        if da != db or len(a) != len(b):
            pad = len(a) - len(b)
            if pad > 0:
                b = b + (0,) * pad
            elif pad < 0:
                a = a + (0,) * -pad
            if da != db:
                fa, fb, da = _over_lcm(da, db)
                a = [c * fa for c in a]
                b = [c * fb for c in b]
        return self._like(list(map(operator.add if sign > 0 else operator.sub, a, b)), da)

    def _scaled(self, n: int, d: int):
        """(n / d) * self."""
        if n == 1 and d == 1:
            return self
        return self._like([n * c for c in self.num], self.den * d)

    def __neg__(self):
        return self._like([-c for c in self.num], self.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))


class SparseCarrier(_Carrier):
    """Arithmetic shared by carriers stored as a numerator map over ``den``.

    The map holds no zeros. Subclasses supply ``_match_shape(other)`` as for
    ``DenseCarrier`` and ``_new(num, den)``, which builds an element of their
    shape from a canonical map; ``_like`` first reduces and drops zeros.
    """

    __slots__ = ()

    def _like(self, num: dict, den: int):
        return self._new(*lowest_terms_sparse(num, den))

    def _plus(self, other, sign: int = 1):
        """self + sign * other, for an operand ``_match`` has accepted.

        A zero operand costs nothing; otherwise one pass over ``other`` adds
        its numerators and drops the keys that cancel.
        """
        b = other.num
        if not b:
            return self
        a = self.num
        if not a:
            return other if sign == 1 else other._scaled(sign, 1)
        da, db = self.den, other.den
        if da == db:
            out = dict(a)
        else:
            fa, fb, da = _over_lcm(da, db)
            out = {k: c * fa for k, c in a.items()}
            sign *= fb
        get = out.get
        for k, c in b.items():
            c = get(k, 0) + sign * c
            if c:
                out[k] = c
            else:
                del out[k]
        return self._new(*_reduced(out, da))

    def _scaled(self, n: int, d: int):
        """(n / d) * self: no zero sweep, one gcd when the denominator is not 1."""
        a = self.num
        if not a or (n == 1 and d == 1):
            return self
        if not n:
            return self._new({}, 1)
        return self._new(*_reduced({k: n * c for k, c in a.items()}, self.den * d))

    def __neg__(self):
        return self._new({k: -c for k, c in self.num.items()}, self.den)

    __hash__ = None
