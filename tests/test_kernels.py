"""Differential tests: the integer-numerator carriers against the Fraction ones.

Each carrier is built twice from the same random data, once from ``rbx`` and
once from the reference implementations in ``reference_carriers``. Every
operation (+, -, *, scalar *, R, ==) must give the same value and the same
rendering on both sides, and every fast result must be stored canonically.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_carriers as ref
from rbx import CPoly, LaurentElement, NCPoly, PolyFunction, RatMatrix, SeqElement, Word, cli
from rbx.models import (
    finite_difference,
    integration_algebra,
    laurent_algebra,
    laurent_pole_projection,
    matrix_algebra,
    riemann_integral,
    standard_sum_operator,
    summation_algebra,
    triangular_projection,
)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.one_of(st.sampled_from([0, 1, -1, 2]), rationals)


def _lowest(nums, den) -> bool:
    return den > 0 and math.gcd(den, *nums) == 1


# ---------------------------------------------------------------------------
# one entry per carrier: raw data, both constructors, a comparable view, R


class Matrix:
    R = staticmethod(triangular_projection)
    ref_R = staticmethod(ref.triangular_projection)

    @staticmethod
    def data(dim):
        return st.lists(rationals, min_size=dim * dim, max_size=dim * dim)

    @staticmethod
    def fast(dim, flat):
        return RatMatrix([flat[i : i + dim] for i in range(0, dim * dim, dim)])

    @staticmethod
    def ref(dim, flat):
        return ref.RatMatrix([flat[i : i + dim] for i in range(0, dim * dim, dim)])

    @staticmethod
    def view(m):
        return m.rows

    @staticmethod
    def canonical(m):
        return len(m.num) == m.dim**2 and _lowest(m.num, m.den)


class Laurent:
    R = staticmethod(laurent_pole_projection)
    ref_R = staticmethod(ref.laurent_pole_projection)
    BOUNDS = (6, 5)

    @staticmethod
    def data(_):
        return st.dictionaries(st.integers(-3, 4), rationals, max_size=4)

    @staticmethod
    def fast(_, coeffs):
        return LaurentElement(coeffs, *Laurent.BOUNDS)

    @staticmethod
    def ref(_, coeffs):
        return ref.LaurentElement(coeffs, *Laurent.BOUNDS)

    @staticmethod
    def view(x):
        return x.coeffs

    @staticmethod
    def canonical(x):
        return all(x.num.values()) and _lowest(list(x.num.values()), x.den)


class Poly:
    R = staticmethod(riemann_integral)
    ref_R = staticmethod(ref.riemann_integral)
    CAP = 12

    @staticmethod
    def data(_):
        return st.lists(rationals, max_size=5)

    @staticmethod
    def fast(_, coeffs):
        return PolyFunction(coeffs, Poly.CAP)

    @staticmethod
    def ref(_, coeffs):
        return ref.PolyFunction(coeffs, Poly.CAP)

    @staticmethod
    def view(p):
        return p.coeffs

    @staticmethod
    def canonical(p):
        return (not p.num or p.num[-1] != 0) and _lowest(p.num, p.den)


def _words():
    return st.lists(st.integers(1, 3), max_size=3).map(tuple)


def _poly_kind(fast_cls, ref_cls):
    class Kind:
        R = ref_R = None

        @staticmethod
        def data(cap):
            return st.dictionaries(_words(), rationals, max_size=4)

        @staticmethod
        def fast(cap, terms):
            return fast_cls({Word(w): c for w, c in terms.items()}, cap)

        @staticmethod
        def ref(cap, terms):
            return ref_cls({ref.Word(w): c for w, c in terms.items()}, cap)

        @staticmethod
        def view(p):
            return {w.letters: c for w, c in p.terms.items()}

        @staticmethod
        def canonical(p):
            keys_ok = all(
                (p.cap is None or len(w) <= p.cap)
                and (fast_cls is NCPoly or list(w) == sorted(w))
                for w in p.num
            )
            return keys_ok and all(p.num.values()) and _lowest(list(p.num.values()), p.den)

    return Kind


NC = _poly_kind(NCPoly, ref.NCPoly)
COMM = _poly_kind(CPoly, ref.CPoly)


def _seq_kind(inner):
    """Windows of length 3 over an inner kind (None: plain rationals)."""

    class Kind:
        R = staticmethod(standard_sum_operator)
        ref_R = staticmethod(ref.standard_sum_operator)

        @staticmethod
        def data(param):
            entry = rationals if inner is None else inner.data(param)
            return st.lists(entry, min_size=3, max_size=3)

        @staticmethod
        def fast(param, entries):
            if inner is None:
                return SeqElement(entries)
            return SeqElement(inner.fast(param, e) for e in entries)

        @staticmethod
        def ref(param, entries):
            if inner is None:
                return ref.SeqElement(entries)
            return ref.SeqElement(inner.ref(param, e) for e in entries)

        @staticmethod
        def view(s):
            return tuple(s.entries if inner is None else map(inner.view, s.entries))

        @staticmethod
        def canonical(s):
            if inner is None:
                return _lowest(s.num, s.den)
            return s.den == 1 and all(map(inner.canonical, s.entries))

    return Kind


KINDS = {
    "matrix2": (Matrix, 2),
    "matrix3": (Matrix, 3),
    "laurent": (Laurent, None),
    "polyfunction": (Poly, None),
    "ncpoly": (NC, None),
    "ncpoly-capped": (NC, 4),
    "cpoly": (COMM, None),
    "cpoly-capped": (COMM, 4),
    "summation-seq": (_seq_kind(None), None),
    "standard-nc-seq": (_seq_kind(NC), 4),
    "standard-comm-seq": (_seq_kind(COMM), 4),
}


def _agree(kind, fast, reference):
    assert kind.canonical(fast), fast
    assert kind.view(fast) == kind.view(reference)
    assert str(fast) == str(reference)


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_fast_carrier_agrees_with_the_fraction_reference(name, data):
    kind, param = KINDS[name]
    a = data.draw(kind.data(param))
    # equal operands half the time, so == is exercised on both outcomes
    b = a if data.draw(st.booleans()) else data.draw(kind.data(param))
    q = data.draw(scalars)
    fa, fb = kind.fast(param, a), kind.fast(param, b)
    ra, rb = kind.ref(param, a), kind.ref(param, b)
    _agree(kind, fa, ra)
    _agree(kind, fa + fb, ra + rb)
    _agree(kind, fa - fb, ra - rb)
    _agree(kind, fa * fb, ra * rb)
    _agree(kind, -fa, -ra)
    _agree(kind, q * fa, q * ra)
    if kind.R is not None:
        _agree(kind, kind.R(fa), kind.ref_R(ra))
    assert (fa == fb) == (ra == rb)
    # equality is canonical: the same value reached by another route is equal
    assert (fa + fb) - fb == fa
    assert fa - fa == 0 * fb


@pytest.mark.parametrize("name", ["ncpoly", "ncpoly-capped", "cpoly", "cpoly-capped"])
def test_products_with_a_zero_operand(name):
    kind, cap = KINDS[name]
    terms = {(1,): Fraction(1, 2), (2, 1): Fraction(-3), (): Fraction(2, 3)}
    for zero_left in (True, False):
        fa, fz = kind.fast(cap, terms), kind.fast(cap, {})
        ra, rz = kind.ref(cap, terms), kind.ref(cap, {})
        fast, reference = (fz * fa, rz * ra) if zero_left else (fa * fz, ra * rz)
        _agree(kind, fast, reference)
        assert type(fast) is type(fa) and fast.cap == cap and fast == kind.fast(cap, {})


def test_summation_window_with_mixed_denominators():
    # chosen so that both results need reducing: R to denominator 4, the
    # difference to 3
    entries = [Fraction(1, 2), Fraction(1, 2), Fraction(5, 4), Fraction(7), Fraction(1, 6)]
    s = SeqElement(entries)
    assert (s.den, s.entries) == (12, tuple(entries))
    summed = standard_sum_operator(s)
    assert summed.entries == ref.standard_sum_operator(ref.SeqElement(entries)).entries
    assert summed.den == 4 and _lowest(summed.num, summed.den)
    assert finite_difference(summed).entries == tuple(entries[:-1])
    entries = [Fraction(1, 6), Fraction(1, 2), Fraction(5, 6), Fraction(7, 6), Fraction(3, 2)]
    diff = finite_difference(SeqElement(entries))
    assert diff.entries == tuple(b - a for a, b in zip(entries, entries[1:]))
    assert diff.den == 3 and _lowest(diff.num, diff.den)


# ---------------------------------------------------------------------------
# the short-cuts of the polynomial kernels, one by one and inside windows

POLY_KINDS = ["ncpoly", "ncpoly-capped", "cpoly", "cpoly-capped"]
HALVES = {(1,): Fraction(1, 2), (2, 1): Fraction(3, 2)}  # numerators 1, 3 over 2


def _agree_poly(kind, cap, fast, reference):
    _agree(kind, fast, reference)
    assert fast.cap == cap


@pytest.mark.parametrize("name", POLY_KINDS)
@pytest.mark.parametrize("c", [Fraction(2), Fraction(-2), Fraction(2, 3), Fraction(4, 3), 1, -1])
def test_constant_times_polynomial_is_reduced(name, c):
    kind, cap = KINDS[name]
    p, rp = kind.fast(cap, HALVES), kind.ref(cap, HALVES)
    k, rk = kind.fast(cap, {(): c}), kind.ref(cap, {(): c})
    for fast, reference in ((k * p, rk * rp), (p * k, rp * rk), (c * p, c * rp)):
        assert type(fast) is type(p)
        _agree_poly(kind, cap, fast, reference)
    # 2 * (1/2 x1 + 3/2 x2x1) = x1 + 3 x2x1: the denominator 2 must cancel
    assert (kind.fast(cap, {(): Fraction(2)}) * p).den == 1


@pytest.mark.parametrize("name", POLY_KINDS)
def test_sums_with_a_zero_operand(name):
    kind, cap = KINDS[name]
    p, z = kind.fast(cap, HALVES), kind.fast(cap, {})
    rp, rz = kind.ref(cap, HALVES), kind.ref(cap, {})
    pairs = ((z + p, rz + rp), (p + z, rp + rz), (z - p, rz - rp), (p - z, rp - rz),
             (z - z, rz - rz), (0 * p, 0 * rp))
    for fast, reference in pairs:
        assert type(fast) is type(p)
        _agree_poly(kind, cap, fast, reference)


@pytest.mark.parametrize("name", POLY_KINDS)
def test_differences_that_cancel(name):
    kind, cap = KINDS[name]
    cases = (
        (HALVES, dict(HALVES)),  # everything cancels: zero over 1
        ({(1,): Fraction(1, 2), (3,): Fraction(1, 4)}, {(3,): Fraction(1, 4)}),  # 4 -> 2
        ({(1,): Fraction(1, 2), (2,): Fraction(1, 3)}, {(2,): Fraction(1, 3)}),  # 6 -> 2
        ({(): Fraction(5, 6), (1,): Fraction(1, 3)}, {(): Fraction(1, 3)}),  # 6 -> 6
    )
    for a, b in cases:
        fast = kind.fast(cap, a) - kind.fast(cap, b)
        _agree_poly(kind, cap, fast, kind.ref(cap, a) - kind.ref(cap, b))
        negated = kind.fast(cap, b) - kind.fast(cap, a)
        _agree_poly(kind, cap, negated, kind.ref(cap, b) - kind.ref(cap, a))
    assert (kind.fast(cap, HALVES) - kind.fast(cap, HALVES)).den == 1


# zero, two constants and two general entries
MIXED = [{}, {(): Fraction(2)}, {(): Fraction(-1, 2)}, HALVES, {(): 1, (2,): Fraction(1, 3)}]


@pytest.mark.parametrize("name", ["standard-nc-seq", "standard-comm-seq"])
@pytest.mark.parametrize("shift", range(len(MIXED)))
def test_windows_mixing_zero_constant_and_general_entries(name, shift):
    kind, cap = KINDS[name]
    a, b = MIXED, MIXED[shift:] + MIXED[:shift]
    fa, fb, ra, rb = kind.fast(cap, a), kind.fast(cap, b), kind.ref(cap, a), kind.ref(cap, b)
    for fast, reference in (
        (fa + fb, ra + rb), (fa - fb, ra - rb), (fa * fb, ra * rb), (fb * fa, rb * ra),
        (-fa, -ra), (Fraction(2, 3) * fa, Fraction(2, 3) * ra), (0 * fa, 0 * ra),
        (kind.R(fa), kind.ref_R(ra)), (kind.R(fa * fb), kind.ref_R(ra * rb)),
    ):
        _agree(kind, fast, reference)
        assert all(type(p) is type(fa.num[0]) and p.cap == cap for p in fast.num)
    assert fa - fa == 0 * fb


# ---------------------------------------------------------------------------
# samplers that draw integers: the same elements as the Fraction-built ones


def _fractions(rng, count, top, den_top):
    return [Fraction(rng.randint(-top, top), rng.randint(1, den_top)) for _ in range(count)]


WIDE = laurent_algebra(12, 12)  # the CLI's Laurent carrier at --order 3
SAMPLERS = {
    "matrix3": (
        matrix_algebra(3).random_element,
        lambda rng: RatMatrix([_fractions(rng, 3, 3, 3) for _ in range(3)]),
    ),
    "summation": (
        summation_algebra(10).random_element,
        lambda rng: SeqElement(_fractions(rng, 10, 4, 3)),
    ),
    "integration": (
        integration_algebra(24).random_element,
        lambda rng: PolyFunction(_fractions(rng, 4, 3, 3), 24),
    ),
    "laurent": (
        laurent_algebra().random_element,
        lambda rng: LaurentElement(dict(zip(range(-2, 4), _fractions(rng, 6, 3, 2))), 4, 6),
    ),
    # a truncation below the top draw: the exponent 3 must be dropped
    "laurent-short": (
        laurent_algebra(4, 2).random_element,
        lambda rng: LaurentElement(dict(zip(range(-2, 4), _fractions(rng, 6, 3, 2))), 4, 2),
    ),
    "cli-laurent": (
        lambda rng: cli._MODELS["laurent"].operand(WIDE, rng),
        lambda rng: LaurentElement(dict(zip(range(-2, 3), _fractions(rng, 5, 3, 2))), 12, 12),
    ),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_integer_samplers_match_the_fraction_ones(name):
    drawn, built = SAMPLERS[name]
    for seed in range(50):
        rng_drawn, rng_built = random.Random(seed), random.Random(seed)
        fast, reference = drawn(rng_drawn), built(rng_built)
        assert type(fast) is type(reference)
        assert (fast.num, fast.den) == (reference.num, reference.den)
        assert str(fast) == str(reference)
        assert rng_drawn.getstate() == rng_built.getstate()
