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

import functools
import math
import operator
from fractions import Fraction


@functools.cache
def bernoulli(n: int) -> Fraction:
    """Return B_n (convention B_1 = -1/2) for 0 <= n <= 32, from the defining
    recurrence

        sum_{k=0}^{n} C(n+1, k) * B_k = 0   for n >= 1,

    with B_0 = 1, so B_n = 0 for odd n >= 3. Each value is computed on first
    use and kept: a run reads only the first few.

    >>> bernoulli(0), bernoulli(1), bernoulli(2)
    (Fraction(1, 1), Fraction(-1, 2), Fraction(1, 6))
    """
    if not 0 <= n <= 32:
        raise IndexError(f"Bernoulli index {n} outside table bound 32")
    if n == 0:
        return Fraction(1)
    acc = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n))
    return Fraction(-acc, n + 1)


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


@functools.cache
def _reduced_pairs(top: int, den_top: int) -> tuple:
    """Row p + top, column q - 1: p / q in lowest terms, as the pair (p, q)."""
    qs = range(1, den_top + 1)
    return tuple(tuple(Fraction(p, q).as_integer_ratio() for q in qs) for p in range(-top, top + 1))


def draw_rationals(rng, count: int, top: int, den_top: int) -> tuple:
    """``count`` draws of randint(-top, top) / randint(1, den_top), as
    ``over_common_denominator`` gives them, with no ``Fraction`` built.

    The generator is called in the same order as by
    ``Fraction(rng.randint(-top, top), rng.randint(1, den_top))``, so a seed
    yields the same element either way: ``randint``'s rejection loop runs inline.
    """
    n = 2 * top + 1
    kn, km = n.bit_length(), den_top.bit_length()
    bits, rows = rng.getrandbits, _reduced_pairs(top, den_top)
    pairs = []
    for _ in range(count):
        r = bits(kn)
        while r >= n:
            r = bits(kn)
        c = bits(km)
        while c >= den_top:
            c = bits(km)
        pairs.append(rows[r][c])
    den = math.lcm(*[q for _, q in pairs])
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


def add_maps(a: dict, b: dict, fb: int = 1, fa: int = 1) -> dict:
    """fa * a + fb * b for numerator maps without zeros, as a map without
    zeros; fb must not be 0. Maps are never changed in place, so an empty
    operand hands the other map back as it is when its factor is 1."""
    if not b and fa == 1:
        return a
    if not a and fb == 1:
        return b
    if len(a) == 1 == len(b) and () in a and () in b:  # two constant polynomials
        c = fa * a[()] + fb * b[()]
        return {(): c} if c else {}
    out = dict(a) if fa == 1 else {k: c * fa for k, c in a.items()}
    get = out.get
    for k, c in b.items():
        c = get(k, 0) + fb * c
        if c:
            out[k] = c
        else:
            del out[k]
    return out


def _over_lcm(da: int, db: int) -> tuple:
    """Multipliers bringing denominators da and db to their lcm, and the lcm."""
    g = math.gcd(da, db)
    return db // g, da // g, da * (db // g)


class _Carrier:
    """What both carrier bases share: the operand check, equality, ``+``,
    ``-`` and scalar ``*``, which check their operand once and then run the
    trusted kernels ``_plus`` and ``_scaled``, and powers by repeated ``*``."""

    __slots__ = ("num", "den")

    def _match(self, other) -> None:
        """Raise ``ValueError`` unless other has this class and shape."""
        if type(other) is not type(self):
            raise ValueError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        self._match_shape(other)

    def __add__(self, other):
        if type(other) is not type(self):
            self._match(other)  # raises: another class
        self._match_shape(other)
        return self._plus(other, 1)

    def __sub__(self, other):
        if type(other) is not type(self):
            self._match(other)  # raises: another class
        self._match_shape(other)
        return self._plus(other, -1)

    def __rmul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self._scaled(scalar.numerator, scalar.denominator)

    def __pow__(self, n: int):
        """The product of n factors self, for n >= 1: a carrier need not hold its unit."""
        if n < 1:
            raise ValueError(f"power {n}: only n >= 1 is defined without the ambient unit")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

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
        """self + sign * other, for an operand ``_match`` has accepted; one pass
        adds and scales both to the lcm denominator, the sign in other's factor."""
        a, b, da, db = self.num, other.num, self.den, other.den
        pad = len(a) - len(b)
        if pad > 0:
            b = b + (0,) * pad
        elif pad < 0:
            a = a + (0,) * -pad
        if da == db:
            return self._like(list(map(operator.add if sign > 0 else operator.sub, a, b)), da)
        fa, fb, den = _over_lcm(da, db)
        fb *= sign
        return self._like([x * fa + y * fb for x, y in zip(a, b)], den)

    def _scaled(self, n: int, d: int):
        """(n / d) * self."""
        if n == 1 and d == 1:
            return self
        return self._like([n * c for c in self.num], self.den * d)

    def __neg__(self):
        return self._scaled(-1, 1)


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

        A zero operand costs nothing; otherwise ``add_maps`` adds the
        numerators and drops the keys that cancel.
        """
        b = other.num
        if not b:
            return self
        a = self.num
        if not a:
            return other if sign == 1 else other._scaled(sign, 1)
        fa, fb, den = _over_lcm(self.den, other.den)
        return self._new(*_reduced(add_maps(a, b, sign * fb, fa), den))

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
