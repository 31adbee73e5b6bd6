"""rbx's exact scalars and integration against sympy, an oracle that shares
no code with rbx. sympy is a test extra only; without it this module is
skipped."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy", reason="sympy (the test extra) is not installed")

from rbx.models import PolyFunction, riemann_integral  # noqa: E402
from rbx.scalars import bernoulli  # noqa: E402


def _fraction(value) -> Fraction:
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))


def test_bernoulli_numbers_match_sympy():
    for n in range(13):
        if n != 1:
            assert bernoulli(n) == _fraction(sympy.bernoulli(n)), n
    # rbx fixes B_1 = -1/2, the sign the Magnus recursion's closed form needs;
    # sympy's sign for B_1 depends on its version (1.14 gives +1/2)
    assert bernoulli(1) == Fraction(-1, 2)
    assert abs(_fraction(sympy.bernoulli(1))) == Fraction(1, 2)


def test_riemann_integral_matches_sympy():
    t = sympy.Symbol("t")
    rng = random.Random(14)
    polys = [[]] + [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 12))]
        for _ in range(30)
    ]
    for coeffs in polys:
        p = sum((sympy.Rational(c.numerator, c.denominator) * t**n for n, c in enumerate(coeffs)),
                sympy.Integer(0))
        integral = sympy.Poly(sympy.integrate(p, (t, 0, t)), t)
        want = [_fraction(c) for c in reversed(integral.all_coeffs())]
        while want and want[-1] == 0:  # PolyFunction keeps no trailing zero
            want.pop()
        assert list(riemann_integral(PolyFunction(coeffs)).coeffs) == want, coeffs
