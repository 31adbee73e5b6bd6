"""Rational scalars, Bernoulli numbers, and truncated lambda-series."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rbx import LambdaSeries, bernoulli, matrix_algebra, parse_rational
from rbx.models import RatMatrix
from rbx.scalars import randint
from rbx.series import series_exp, series_inverse, series_log

M2 = matrix_algebra(2)

KNOWN_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_bernoulli_table():
    for n, value in KNOWN_BERNOULLI.items():
        assert bernoulli(n) == value
    for n in (3, 5, 7, 9, 11):
        assert bernoulli(n) == 0
    assert bernoulli(32) == Fraction(-7709321041217, 510)
    for n in (-1, 33):
        with pytest.raises(IndexError):
            bernoulli(n)


def test_parse_rational():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("0") == Fraction(0)
    with pytest.raises(ValueError):
        parse_rational("two thirds")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def _scalar(q: Fraction) -> RatMatrix:
    return q * M2.one


def _series(coeffs) -> LambdaSeries:
    return LambdaSeries(M2, tuple(_scalar(Fraction(c)) for c in coeffs))


rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
coeff_lists = st.lists(rationals, min_size=1, max_size=5)


def test_term_and_order():
    s = LambdaSeries.term(M2, 2, M2.one, 4)
    assert s.coefficient(2) == M2.one
    assert s.coefficient(0) == M2.zero
    assert s.order == 4
    assert LambdaSeries.one(M2, 3).coefficient(0) == M2.one
    assert LambdaSeries.zero(M2, 3) == LambdaSeries(M2, (M2.zero,) * 4)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        st.lists(rationals, min_size=n, max_size=n),
        st.lists(rationals, min_size=n, max_size=n),
    )
))
def test_mul_matches_cauchy_convolution(pair):
    a, b = pair
    pa, pb = _series(a), _series(b)
    prod = pa * pb
    n = pa.order
    for k in range(n + 1):
        direct = sum(
            (pa.coefficient(i) * pb.coefficient(k - i) for i in range(k + 1)),
            start=M2.zero,
        )
        assert prod.coefficient(k) == direct


@settings(deadline=None, max_examples=40)
@given(coeff_lists)
def test_exp_log_round_trip(tail):
    u = LambdaSeries(M2, tuple([M2.zero] + [_scalar(c) for c in tail]))
    f = series_exp(u)
    assert f.coefficient(0) == M2.one
    assert series_log(f) == u
    # and the other direction, starting from a unit-headed series
    g = LambdaSeries(M2, tuple([M2.one] + [_scalar(c) for c in tail]))
    assert series_exp(series_log(g)) == g


@settings(deadline=None, max_examples=40)
@given(coeff_lists)
def test_inverse(tail):
    f = LambdaSeries(M2, tuple([M2.one] + [_scalar(c) for c in tail]))
    finv = series_inverse(f)
    assert f * finv == LambdaSeries.one(M2, f.order)
    assert finv * f == LambdaSeries.one(M2, f.order)


def test_log_requires_unit_head():
    s = LambdaSeries.term(M2, 1, M2.one, 3)
    with pytest.raises(ValueError):
        series_log(s)
    with pytest.raises(ValueError):
        series_inverse(s)
    with pytest.raises(ValueError):
        series_exp(LambdaSeries.one(M2, 3))


def test_linear_structure():
    a = _series([1, 2, 3])
    b = _series([0, -1, Fraction(1, 2)])
    assert (a + b).coefficient(1) == _scalar(Fraction(1))
    assert (a - b).coefficient(2) == _scalar(Fraction(5, 2))
    assert (Fraction(1, 3) * a).coefficient(2) == _scalar(Fraction(1))
    assert (2 * a).coefficient(0) == _scalar(Fraction(2))
    assert (-a) + a == LambdaSeries.zero(M2, 2)


# every range a sampler draws from: draw_rationals for matrix, integration
# (-3..3 over 1..3), laurent (-3..3 over 1..2) and summation (-4..4 over
# 1..3); the standard windows (-2..2, 1..2 and slots 1..W-1 for W = 3..16);
# and the standard operand (indices 0..3 and 0..4)
SAMPLER_RANGES = [(-3, 3), (1, 3), (1, 2), (-4, 4), (-2, 2), (0, 3), (0, 4)] + [
    (1, top) for top in range(2, 16)
]


def test_randint_draws_what_random_randint_draws():
    for (a, b), seed in itertools.product(SAMPLER_RANGES, range(50)):
        ours, theirs = random.Random(seed), random.Random(seed)
        assert [randint(ours, a, b) for _ in range(20)] == [theirs.randint(a, b) for _ in range(20)]
        assert ours.getstate() == theirs.getstate()
