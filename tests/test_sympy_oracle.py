"""rbx's exact scalars, integration, scalar series and partial sums against
sympy, an oracle that shares no code with rbx. sympy is a test extra only;
without it this module is skipped."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy", reason="sympy (the test extra) is not installed")

from rbx.models import (  # noqa: E402
    PolyFunction,
    SeqElement,
    riemann_integral,
    standard_sum_operator,
    summation_algebra,
)
from rbx.scalars import bernoulli  # noqa: E402
from rbx.series import LambdaSeries, series_exp, series_inverse, series_log  # noqa: E402

ORDER = 8  # the deepest --order the CLI takes, the one series-deep runs
X = sympy.Symbol("x")


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


# ---------------------------------------------------------------------------
# scalar series: lambda-series over one-slot rational windows, against the
# expansion sympy.series gives to O(x^9)


def _random_series(rng, grades, head):
    """A series with head at grade 0 and random rationals at the given grades,
    as rbx holds it and as a sympy polynomial in x."""
    coeffs = [Fraction(head)] + [Fraction(0)] * ORDER
    for g in grades:
        coeffs[g] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
    ours = LambdaSeries(summation_algebra(1), [SeqElement([c]) for c in coeffs])
    terms = (sympy.Rational(c.numerator, c.denominator) * X**k for k, c in enumerate(coeffs))
    return ours, sympy.Add(*terms)


def _values(series) -> list:
    return [c.entries[0] for c in series.coeffs]


def _expansion(expr) -> list:
    poly = sympy.Poly(sympy.series(expr, X, 0, ORDER + 1).removeO(), X)
    return [_fraction(poly.coeff_monomial(X**k)) for k in range(ORDER + 1)]


def test_series_log_and_inverse_match_sympy():
    rng = random.Random(31)
    for _ in range(2):
        a, expr = _random_series(rng, range(1, ORDER + 1), 1)  # every grade nonzero
        assert _values(series_log(a)) == _expansion(sympy.log(expr)), expr
        assert _values(series_inverse(a)) == _expansion(1 / expr), expr


def test_series_exp_matches_sympy():
    # sympy's exp of a dense degree-8 polynomial costs about ten sparse
    # ones, so these series have four random grades each, grade 8 among them
    rng = random.Random(32)
    for _ in range(3):
        grades = rng.sample(range(1, ORDER), 3) + [ORDER]
        u, expr = _random_series(rng, grades, 0)
        assert _values(series_exp(u)) == _expansion(sympy.exp(expr)), expr


def test_standard_sum_operator_gives_the_partial_sums():
    rng = random.Random(33)
    n, k = sympy.symbols("n k", integer=True, nonnegative=True)
    for window in (3, 10, 16):  # the --window bounds and the default
        # random entries: slot k of R is the explicit sum of the slots below k
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(window)]
        terms = [sympy.Rational(e.numerator, e.denominator) for e in entries]
        want = [_fraction(sympy.Add(*terms[:j])) for j in range(window)]
        assert list(standard_sum_operator(SeqElement(entries)).entries) == want
        # a cubic f sampled at 0..W-1: slot k of R is sympy's closed form of
        # sum_{i<k} f(i) at k
        f = sum(sympy.Rational(rng.randint(-9, 9), rng.randint(1, 9)) * n**d for d in range(4))
        closed = sympy.summation(f, (n, 0, k - 1))
        window_of_f = SeqElement([_fraction(f.subs(n, i)) for i in range(window)])
        got = standard_sum_operator(window_of_f).entries
        assert list(got) == [_fraction(closed.subs(k, j)) for j in range(window)], f
