"""Reference series layer: the Magnus, flows, log and exp code before the
grade-aware rewrite.

``_apply_prelie_series``, ``prelie_magnus_of_series``, ``flows_product``,
``series_log`` and ``series_exp`` are kept verbatim as they stood when every
ell^n tower was rebuilt for each grade and every power u^k was multiplied out
from grade 0. They are the oracle for the differential tests in
``test_series_layer.py``: the rewritten functions must give the same
coefficients. They are not part of the package.
"""

from __future__ import annotations

import math
from fractions import Fraction

from rbx.algebra import RBAlgebra, prelie_left
from rbx.identities import MagnusExpansion
from rbx.scalars import bernoulli
from rbx.series import LambdaSeries


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
    return MagnusExpansion(omega=omega, source=x, weight=alg.weight)


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
            power = power * u
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
            power = power * a
    return out
