"""Truncated formal power series in a formal parameter over a carrier.

A series holds coefficients 0..N in some algebra; all arithmetic truncates at
order N, which makes every computation exact in the graded sense. The carrier
is any object with ``zero`` and ``one`` attributes whose elements support
``+``, ``-`` and left multiplication by ``Fraction``. Products take a
bilinear map ``mul``, ``*`` by default. exp and log multiply only
coefficients of grade >= 1, so ``mul`` needs no unit: the grade-0 ``one`` is
a formal marker that no product reads.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class LambdaSeries:
    """Coefficient vector c_0 .. c_N of a series sum_k c_k lambda^k."""

    __slots__ = ("carrier", "coeffs")

    def __init__(self, carrier, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the order-0 coefficient")
        self.carrier = carrier
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, carrier, order: int) -> "LambdaSeries":
        return cls(carrier, [carrier.zero] * (order + 1))

    @classmethod
    def one(cls, carrier, order: int) -> "LambdaSeries":
        return cls(carrier, [carrier.one] + [carrier.zero] * order)

    @classmethod
    def term(cls, carrier, k: int, value, order: int) -> "LambdaSeries":
        """The series value * lambda^k."""
        if not 0 <= k <= order:
            raise ValueError(f"term index {k} outside order {order}")
        coeffs = [carrier.zero] * (order + 1)
        coeffs[k] = value
        return cls(carrier, coeffs)

    def coefficient(self, k: int):
        return self.coeffs[k]

    def truncate(self, order: int) -> "LambdaSeries":
        """The same series cut at a lower (or equal) order."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        return LambdaSeries(self.carrier, self.coeffs[: order + 1])

    def _match(self, other: "LambdaSeries") -> None:
        if self.carrier is not other.carrier:
            raise ValueError("series carriers differ")
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __add__(self, other: "LambdaSeries") -> "LambdaSeries":
        self._match(other)
        return LambdaSeries(self.carrier, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "LambdaSeries") -> "LambdaSeries":
        self._match(other)
        return LambdaSeries(self.carrier, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "LambdaSeries":
        return LambdaSeries(self.carrier, [-a for a in self.coeffs])

    def __rmul__(self, scalar) -> "LambdaSeries":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        q = Fraction(scalar)
        return LambdaSeries(self.carrier, [q * a for a in self.coeffs])

    def __mul__(self, other: "LambdaSeries") -> "LambdaSeries":
        return series_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaSeries):
            return NotImplemented
        return self.carrier is other.carrier and self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self) -> str:
        return "LambdaSeries[" + "; ".join(str(c) for c in self.coeffs) + "]"


def series_mul(
    a: LambdaSeries, b: LambdaSeries, low_a: int = 0, low_b: int = 0, mul=operator.mul
) -> LambdaSeries:
    """Cauchy product truncated at the common order, coefficients multiplied by
    the bilinear map mul.

    a vanishes below grade low_a and b below grade low_b, so the product
    vanishes below low_a + low_b; only the grades and terms that can be
    nonzero are computed.
    """
    a._match(b)
    n = a.order
    zero = a.carrier.zero
    out = [zero] * min(low_a + low_b, n + 1)
    for k in range(low_a + low_b, n + 1):
        acc = zero
        for i in range(low_a, k - low_b + 1):
            acc = acc + mul(a.coeffs[i], b.coeffs[k - i])
        out.append(acc)
    return LambdaSeries(a.carrier, out)


def _power_sum(u: LambdaSeries, head, scale, mul) -> LambdaSeries:
    """head + sum_{k=1..N} scale(k) u^k for u with zero constant term, powers
    taken with the bilinear map mul.

    u^k vanishes below grade k, so each power is multiplied out from grade k
    and adds only to grades k..N.
    """
    n = u.order
    out = [head] + [u.carrier.zero] * n
    power = u
    for k in range(1, n + 1):
        c = scale(k)
        for g in range(k, n + 1):
            out[g] = out[g] + c * power.coeffs[g]
        if k < n:
            power = series_mul(power, u, k, 1, mul)
    return LambdaSeries(u.carrier, out)


def series_log(a: LambdaSeries, mul=operator.mul) -> LambdaSeries:
    """log(a) = sum_{k>=1} (-1)^{k+1} (a-1)^k / k, requires a_0 = 1."""
    if a.coeffs[0] != a.carrier.one:
        raise ValueError("series_log needs unit constant term")
    u = a - LambdaSeries.one(a.carrier, a.order)
    return _power_sum(u, a.carrier.zero, lambda k: Fraction(1 if k % 2 == 1 else -1, k), mul)


def series_exp(a: LambdaSeries, mul=operator.mul) -> LambdaSeries:
    """exp(a) = sum_{k>=0} a^k / k!, requires a_0 = 0."""
    if a.coeffs[0] != a.carrier.zero:
        raise ValueError("series_exp needs zero constant term")
    return _power_sum(a, a.carrier.one, lambda k: Fraction(1, math.factorial(k)), mul)


def series_inverse(a: LambdaSeries) -> LambdaSeries:
    """Multiplicative inverse of a series with unit constant term."""
    if a.coeffs[0] != a.carrier.one:
        raise ValueError("series_inverse needs unit constant term")
    n = a.order
    inv = [a.carrier.one]
    for k in range(1, n + 1):
        acc = a.carrier.zero
        for i in range(1, k + 1):
            acc = acc + a.coeffs[i] * inv[k - i]
        inv.append(-acc)
    return LambdaSeries(a.carrier, inv)
