"""Reference series layer: the Magnus, flows, log and exp code before the
grade-aware rewrite, and BCH and Bogoliubov before series products took a
bilinear map.

``_apply_prelie_series``, ``prelie_magnus_of_series``, ``flows_product``,
``series_log`` and ``series_exp`` are kept verbatim as they stood when every
ell^n tower was rebuilt for each grade and every power u^k was multiplied out
from grade 0. ``bch_of_series`` is kept verbatim as it stood when the double
product got a formal unit adjoined through ``_Unitized``, and
``bogoliubov_decompose`` as it stood when it ran its own degree-by-degree
recursion. They are the oracle for the differential tests in
``test_series_layer.py``: the rewritten functions must give the same
coefficients. They are not part of the package.

Their series products go through ``series_mul`` here, a plain Cauchy product
that forms every term, zero operands included, and never calls the
package's ``series_mul``.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from rbx.algebra import RBAlgebra, double_product, prelie_left, tilde_operator
from rbx.identities import MagnusExpansion
from rbx.scalars import bernoulli
from rbx.series import LambdaSeries


def series_mul(a: LambdaSeries, b: LambdaSeries) -> LambdaSeries:
    """The Cauchy product truncated at the common order, every term formed."""
    return LambdaSeries(a.carrier, tuple(
        functools.reduce(operator.add, (a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)))
        for k in range(a.order + 1)
    ))


def _constant_source(alg: RBAlgebra, x, order: int) -> LambdaSeries:
    return LambdaSeries.term(alg, 0, x, order)


def _apply_prelie_series(alg: RBAlgebra, w: LambdaSeries, t: LambdaSeries) -> LambdaSeries:
    """Grade g of w |> t, using only w grades >= 1."""
    out = []
    for g in range(t.order + 1):
        acc = alg.zero
        for i in range(1, g + 1):
            acc = acc + prelie_left(alg, w.coefficient(i), t.coefficient(g - i))
        out.append(acc)
    return LambdaSeries(alg, tuple(out))


def prelie_magnus_of_series(alg: RBAlgebra, z: LambdaSeries, order: int) -> LambdaSeries:
    """Omega = lambda z + sum_{n>0} ((-1)^n B_n / n!) ell^n_{Omega |>}(lambda z).

    Grade k of the ell^n term pairs Omega grades >= 1 with a lambda z grade
    >= 1, so it only reads Omega below grade k: the recursion is well founded
    and each coefficient is independent of the truncation order.
    """
    lam_z = LambdaSeries(
        alg, tuple([alg.zero] + [z.coefficient(k) for k in range(order)])
    )
    omega = [alg.zero]
    for k in range(1, order + 1):
        acc = lam_z.coefficient(k)
        partial = LambdaSeries(alg, tuple(omega + [alg.zero] * (order + 1 - len(omega))))
        tower = lam_z
        for n in range(1, k):
            tower = _apply_prelie_series(alg, partial, tower)
            c = Fraction((-1) ** n) * bernoulli(n) / math.factorial(n)
            if c:
                acc = acc + c * tower.coefficient(k)
        omega.append(acc)
    return LambdaSeries(alg, tuple(omega))


def prelie_magnus(alg: RBAlgebra, x, order: int) -> MagnusExpansion:
    omega = prelie_magnus_of_series(alg, _constant_source(alg, x, order), order)
    return MagnusExpansion(omega)


def flows_product(alg: RBAlgebra, x, y, order: int) -> LambdaSeries:
    """The source z = x # y with solve(z) = solve(x) solve(y).

    z = y + exp(-ell_{Omega'(y) |>})(x), returned as a source series whose
    grade-0 coefficient is x + y.
    """
    omega_y = prelie_magnus(alg, y, order).omega
    term = _constant_source(alg, x, order)
    acc = term
    for k in range(1, order + 1):
        term = _apply_prelie_series(alg, omega_y, term)
        acc = acc + Fraction((-1) ** k, math.factorial(k)) * term
    return acc + _constant_source(alg, y, order)


def series_log(a: LambdaSeries) -> LambdaSeries:
    """log(a) = sum_{k>=1} (-1)^{k+1} (a-1)^k / k, requires a_0 = 1."""
    if a.coeffs[0] != a.carrier.one:
        raise ValueError("series_log needs unit constant term")
    n = a.order
    u = a - LambdaSeries.one(a.carrier, n)
    out = LambdaSeries.zero(a.carrier, n)
    power = u
    for k in range(1, n + 1):
        sign = 1 if k % 2 == 1 else -1
        out = out + Fraction(sign, k) * power
        if k < n:
            power = series_mul(power, u)
    return out


def series_exp(a: LambdaSeries) -> LambdaSeries:
    """exp(a) = sum_{k>=0} a^k / k!, requires a_0 = 0."""
    if a.coeffs[0] != a.carrier.zero:
        raise ValueError("series_exp needs zero constant term")
    n = a.order
    out = LambdaSeries.one(a.carrier, n)
    power = a
    for k in range(1, n + 1):
        out = out + Fraction(1, math.factorial(k)) * power
        if k < n:
            power = series_mul(power, a)
    return out


def bogoliubov_decompose(alg: RBAlgebra, x: LambdaSeries):
    """Solve f = 1 + R(fx) and h^-1 = 1 - Rtilde(fx) degree by degree.

    x must have zero constant term; the grading lives inside x itself.
    """
    if not x.coefficient(0) == alg.zero:
        raise ValueError("source series must have zero constant term")
    f = [alg.one]
    hinv = [alg.one]
    for n in range(1, x.order + 1):
        w = alg.zero
        for i in range(n):
            w = w + f[i] * x.coefficient(n - i)
        f.append(alg.rb(w))
        hinv.append(-tilde_operator(alg, w))
    return LambdaSeries(alg, tuple(f)), LambdaSeries(alg, tuple(hinv))


class _Unitized:
    """Formal unit adjoined to the (nonunital) double product."""

    __slots__ = ("alg",)

    def __init__(self, alg: RBAlgebra):
        self.alg = alg

    @property
    def zero(self) -> "_UnitizedElement":
        return _UnitizedElement(self, Fraction(0), self.alg.zero)

    @property
    def one(self) -> "_UnitizedElement":
        return _UnitizedElement(self, Fraction(1), self.alg.zero)


class _UnitizedElement:
    __slots__ = ("carrier", "scalar", "body")

    def __init__(self, carrier: _Unitized, scalar: Fraction, body):
        self.carrier = carrier
        self.scalar = Fraction(scalar)
        self.body = body

    def __add__(self, other: "_UnitizedElement") -> "_UnitizedElement":
        return _UnitizedElement(self.carrier, self.scalar + other.scalar, self.body + other.body)

    def __sub__(self, other: "_UnitizedElement") -> "_UnitizedElement":
        return self + (-other)

    def __neg__(self) -> "_UnitizedElement":
        return _UnitizedElement(self.carrier, -self.scalar, -self.body)

    def __rmul__(self, scalar) -> "_UnitizedElement":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        q = Fraction(scalar)
        return _UnitizedElement(self.carrier, q * self.scalar, q * self.body)

    def __mul__(self, other: "_UnitizedElement") -> "_UnitizedElement":
        body = self.scalar * other.body + other.scalar * self.body
        body = body + double_product(self.carrier.alg, self.body, other.body)
        return _UnitizedElement(self.carrier, self.scalar * other.scalar, body)

    def __eq__(self, other) -> bool:
        return self.scalar == other.scalar and self.body == other.body

    __hash__ = None

    def __str__(self) -> str:
        return f"{self.scalar}*unit + {self.body}"


def bch_of_series(alg: RBAlgebra, a: LambdaSeries, b: LambdaSeries, product: str = "carrier") -> LambdaSeries:
    """log(exp(a) exp(b)) for series with zero constant coefficient.

    With product="double" the double product gets a formal unit through
    ``_Unitized``, whose elements carry the carrier's zero as the body of the
    unit and of grade 0, and every product with them is formed. That matches
    the package's BCH in the double product only for an R with R(0) = 0:
    otherwise x * 0 = xR(0) is not 0.
    """
    if product == "carrier":
        return series_log(series_mul(series_exp(a), series_exp(b)))
    if product != "double":
        raise ValueError(f"unknown product {product!r}")
    dc = _Unitized(alg)
    lift = lambda s: LambdaSeries(
        dc, tuple(_UnitizedElement(dc, Fraction(0), c) for c in s.coeffs)
    )
    out = series_log(series_mul(series_exp(lift(a)), series_exp(lift(b))))
    for k in range(out.order + 1):
        if out.coefficient(k).scalar != 0:
            raise ArithmeticError("unit component leaked into a BCH coefficient")
    return LambdaSeries(alg, tuple(c.body for c in out.coeffs))
