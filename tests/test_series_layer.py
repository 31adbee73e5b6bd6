"""Differential tests: the grade-aware series layer against the plain one.

The Magnus towers, the flows composition and series log/exp skip every
coefficient they know to be zero and compute each tower entry once. The
functions in ``reference_series`` rebuild everything from grade 0; both must
give the same coefficients at every truncation order N = 1..8 on the matrix,
Laurent, summation and both standard carriers.

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
    check_flows_bch,
    check_flows_product_law,
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


def test_truncate():
    alg, x, y = _sources("matrix")
    s = _mixed_source(alg, x, y, 5)
    assert s.truncate(5) == s
    assert s.truncate(2) == LambdaSeries(alg, (x, y, x))
    with pytest.raises(ValueError):
        s.truncate(6)


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
    # sum_k k(k-1)/2 = C(N+1, 3) = 84 at N = 8, two carrier products each
    # (252 when each took three), against 1008 pre-Lie products before the
    # towers. R runs once on each omega_k below the top grade, 7 times (84
    # when every pre-Lie product applied it again).
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
    assert (r_calls[0], products[0]) == (7, 168)
    old = _count_prelie(monkeypatch, ref)
    ref.prelie_magnus(alg, x, 8)
    assert old[0] == 1008


def test_flows_checks_reuse_the_given_magnus_series(monkeypatch):
    alg, x, y = _sources("matrix")
    omega_x = prelie_magnus(alg, x, 3).omega
    omega_y = prelie_magnus(alg, y, 4).omega
    magnus_calls = [0]
    inner = identities.prelie_magnus

    def counted(*args):
        magnus_calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(identities, "prelie_magnus", counted)
    assert check_flows_bch(alg, x, y, 3, omega_x, omega_y).status == "pass"
    assert check_flows_product_law(alg, x, y, 4, omega_y).status == "pass"
    assert magnus_calls[0] == 0
