"""Differential tests: the grade-aware series layer against the plain one.

The Magnus towers, the flows composition and series log/exp skip every
coefficient they know to be zero and compute each tower entry at most once.
Fixed points, pre-Lie towers and products through the carrier ``*`` also skip
a term with an operand that is the carrier's ``zero`` object, the padding of
constant sources and of ``LambdaSeries.term``: by bilinearity of ``*`` that
term is 0 under any operator. Any other product, such as the double product,
forms every term, since x * 0 = xR(0) need not vanish. The functions in
``reference_series`` rebuild everything from grade 0 and form every product;
both must give the same coefficients at every truncation order N = 1..8 on
the matrix, Laurent, summation and both standard carriers, also under an
operator with R(0) != 0.

BCH in the double product runs without an adjoined unit, and Bogoliubov
through the left fixed point; both must match the reference unitized
carrier and recursion coefficientwise.
"""

import operator
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import reference_series as ref
from rbx import identities
from rbx.algebra import double_product, prelie_left
from rbx.cli import SuiteConfig, default_models
from rbx.identities import (
    bch_of_series,
    bogoliubov_decompose,
    flows_product,
    prelie_magnus,
    prelie_magnus_of_series,
    solve_fixed_point,
)
from rbx.models import LaurentElement, RatMatrix
from rbx.series import LambdaSeries, series_exp, series_log, series_mul

ORDERS = range(1, 9)
REGISTRY = default_models(SuiteConfig(order=8))


def _sources(name):
    """Two source elements per carrier, small enough for order-8 towers."""
    alg = REGISTRY[name]
    rng = random.Random(5)
    if name == "matrix":
        x = RatMatrix.unit(3, 1, 2) + RatMatrix.unit(3, 2, 1)
        return alg, x, alg.random_element(rng)
    if name == "laurent":
        probe = alg.zero
        x = LaurentElement({-1: 1, 0: 1}, probe.pole_bound, probe.trunc)
        y = LaurentElement({-1: Fraction(1, 2), 1: -2}, probe.pole_bound, probe.trunc)
        return alg, x, y
    if name.startswith("standard"):
        return alg, alg.one + alg.basis[1], alg.basis[2] - Fraction(1, 3) * alg.basis[1]
    return alg, alg.random_element(rng), alg.random_element(rng)


CARRIERS = ("matrix", "laurent", "summation", "standard-comm", "standard-nc")


def _mixed_source(alg, x, y, order):
    """A source with every grade nonzero: x, y, x, y, ..."""
    return LambdaSeries(alg, tuple(x if k % 2 == 0 else y for k in range(order + 1)))


@pytest.mark.parametrize("name", CARRIERS)
def test_magnus_matches_the_reference(name):
    alg, x, y = _sources(name)
    for n in ORDERS:
        assert prelie_magnus(alg, x, n).omega == ref.prelie_magnus(alg, x, n).omega, n
    z = _mixed_source(alg, x, y, 8)
    for n in ORDERS:
        got = prelie_magnus_of_series(alg, z, n)
        assert got == ref.prelie_magnus_of_series(alg, z, n), n


@pytest.mark.parametrize("name", CARRIERS)
def test_flows_product_matches_the_reference(name):
    alg, x, y = _sources(name)
    omega_y = prelie_magnus(alg, y, 8).omega
    for n in ORDERS:
        want = ref.flows_product(alg, x, y, n)
        assert flows_product(alg, x, y, n, prelie_magnus(alg, y, n).omega) == want, n
        # a Magnus series of higher order gives the same product
        assert flows_product(alg, x, y, n, omega_y) == want, n
    with pytest.raises(ValueError):  # a Magnus series below the order
        flows_product(alg, x, y, 4, prelie_magnus(alg, y, 3).omega)


@pytest.mark.parametrize("name", CARRIERS)
def test_log_and_exp_match_the_reference(name):
    alg, x, y = _sources(name)
    for n in ORDERS:
        f = solve_fixed_point(alg, x, order=n)
        assert series_log(f) == ref.series_log(f), n
        u = _mixed_source(alg, x, y, n) - LambdaSeries.term(alg, 0, x, n)
        assert series_exp(u) == ref.series_exp(u), n
        assert series_log(series_exp(u)) == u, n


@pytest.mark.parametrize("name", CARRIERS)
def test_prelie_series_grade_skip_matches_the_reference(name):
    alg, x, y = _sources(name)
    w = _mixed_source(alg, x, y, 6)
    act = lambda u, v: prelie_left(alg, u, v)
    for low in range(8):
        t = LambdaSeries(alg, tuple(alg.zero if k < low else (x, y)[k % 2] for k in range(7)))
        got = series_mul(w, t, 1, low, mul=act)
        assert got == ref._apply_prelie_series(alg, w, t), low
        assert got.order == 6


def _unshared(s):
    """s with each coefficient that is the carrier's zero object replaced by an
    equal element that is not that object, so no product with it is skipped."""
    zero = s.carrier.zero
    fresh = -zero
    assert fresh == zero and fresh is not zero
    return LambdaSeries(s.carrier, tuple(fresh if c is zero else c for c in s.coeffs))


@pytest.mark.parametrize("name", CARRIERS)
def test_skipped_zero_products_change_nothing_when_r_of_zero_is_not_zero(name):
    # R(v) + 1 has R(0) = 1, so the double product gives x * 0 = xR(0) = x:
    # only the carrier * may skip a zero operand. The reference forms every
    # product, but its unitized double product also multiplies the bodies of
    # the unit and of grade 0, which no series here reads, so BCH in the
    # double product is checked against the same series with unshared zeros.
    base, x, y = _sources(name)
    alg = replace(base, rb=lambda v: base.rb(v) + base.one)
    star = lambda u, v: double_product(alg, u, v)
    for n in range(1, 7):
        const, mixed = LambdaSeries.term(alg, 0, x, n), _mixed_source(alg, x, y, n)
        for z in (const, mixed):
            assert prelie_magnus_of_series(alg, z, n) == ref.prelie_magnus_of_series(alg, z, n), n
        omega_y = prelie_magnus(alg, y, n).omega
        assert flows_product(alg, x, y, n, omega_y) == ref.flows_product(alg, x, y, n), n
        lam_x, lam_y = LambdaSeries.term(alg, 1, x, n), LambdaSeries.term(alg, 1, y, n)
        f, hinv = ref.bogoliubov_decompose(alg, lam_x)
        assert solve_fixed_point(alg, x, order=n) == f, n
        assert series_log(f) == ref.series_log(f), n
        assert series_exp(lam_x) == ref.series_exp(lam_x), n
        assert bch_of_series(lam_x, lam_y) == ref.bch_of_series(alg, lam_x, lam_y), n
        want = bch_of_series(_unshared(lam_x), _unshared(lam_y), star)
        assert bch_of_series(lam_x, lam_y, star) == want, n
        if n <= 4:
            assert bogoliubov_decompose(alg, lam_x) == (f, hinv), n
            source = mixed - const
            assert bogoliubov_decompose(alg, source) == ref.bogoliubov_decompose(alg, source), n


BCH_CARRIERS = ("matrix", "laurent", "standard-nc", "integration", "summation")


def _bch_inputs(name, n):
    """Two grade-1 elements, and two series with every grade >= 1 nonzero."""
    alg, x, y = _sources(name)
    a = _mixed_source(alg, x, y, n) - LambdaSeries.term(alg, 0, x, n)
    b = _mixed_source(alg, y, x, n) - LambdaSeries.term(alg, 0, y, n)
    return alg, x, y, a, b


def _mul(alg, product):
    """The bilinear map the reference's product name stands for."""
    return operator.mul if product == "carrier" else lambda u, v: double_product(alg, u, v)


@pytest.mark.parametrize("product", ("carrier", "double"))
@pytest.mark.parametrize("name", BCH_CARRIERS)
def test_bch_matches_the_unitized_reference(name, product):
    for n in range(1, 7):
        alg, x, y, a, b = _bch_inputs(name, n)
        lam_x, lam_y = LambdaSeries.term(alg, 1, x, n), LambdaSeries.term(alg, 1, y, n)
        mul = _mul(alg, product)
        assert bch_of_series(lam_x, lam_y, mul) == ref.bch_of_series(alg, lam_x, lam_y, product), n
        assert bch_of_series(a, b, mul) == ref.bch_of_series(alg, a, b, product), n


@pytest.mark.parametrize("product", ("carrier", "double"))
def test_bch_without_the_cross_term_is_caught(monkeypatch, product):
    # zeroing the series product in identities drops exactly A B from
    # log(1 + A + B + A B); from grade 2 on the reference disagrees
    monkeypatch.setattr(identities, "series_mul", lambda a, *_: LambdaSeries.zero(a.carrier, a.order))
    for name in BCH_CARRIERS:
        alg, x, y, a, b = _bch_inputs(name, 2)
        got = bch_of_series(a, b, _mul(alg, product))
        assert got != ref.bch_of_series(alg, a, b, product), name


@pytest.mark.parametrize("name", ("laurent", "matrix"))
def test_bogoliubov_matches_the_reference(name):
    alg, x, y = _sources(name)
    for n in range(1, 5):
        source = _mixed_source(alg, x, y, n) - LambdaSeries.term(alg, 0, x, n)
        assert bogoliubov_decompose(alg, source) == ref.bogoliubov_decompose(alg, source), n


def test_series_mul_grade_skip_matches_the_full_product():
    alg, x, y = _sources("matrix")
    for low_a in range(4):
        for low_b in range(4):
            a = LambdaSeries(alg, tuple(alg.zero if k < low_a else x for k in range(6)))
            b = LambdaSeries(alg, tuple(alg.zero if k < low_b else y for k in range(6)))
            assert series_mul(a, b, low_a, low_b) == series_mul(a, b)


def _count_prelie(monkeypatch, module) -> list:
    calls = [0]
    inner = module.prelie_left

    def counted(alg, a, b):
        calls[0] += 1
        return inner(alg, a, b)

    monkeypatch.setattr(module, "prelie_left", counted)
    return calls


def test_magnus_computes_each_tower_entry_once(monkeypatch):
    # tower n contributes grades n+1..N, each a sum of k - n pre-Lie products:
    # sum_k k(k-1)/2 = C(N+1, 3) = 84 at N = 8, against 1008 pre-Lie products
    # before the towers. Of the 84, a constant source skips the k - 2 terms of
    # tower 1 at grade k that act on a zero source grade, 21 in all, and the
    # towers n = 3, 5 and 7 of weight B_n = 0 skip their top-grade entries of
    # 5, 3 and 1 terms, 9 in all. That leaves 54 pre-Lie products, two carrier
    # products each: 108 (168 when every tower entry was formed, 252 when
    # each pre-Lie product took three). R runs once on each omega_k below the
    # top grade, 7 times (84 when every pre-Lie product applied it again).
    alg, x, _ = _sources("matrix")
    r_calls, products = [0], [0]
    inner_rb, inner_mul = alg.rb, RatMatrix.__mul__

    def rb(v):
        r_calls[0] += 1
        return inner_rb(v)

    def mul(a, b):
        products[0] += 1
        return inner_mul(a, b)

    monkeypatch.setattr(RatMatrix, "__mul__", mul)
    prelie_magnus(replace(alg, rb=rb), x, 8)
    assert (r_calls[0], products[0]) == (7, 108)
    old = _count_prelie(monkeypatch, ref)
    ref.prelie_magnus(alg, x, 8)
    assert old[0] == 1008
