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
from rbx import cli
from rbx.errors import ConfigError
from rbx.models import (
    LaurentElement,
    PolyFunction,
    RatMatrix,
    SeqElement,
    commutative_standard_algebra,
    finite_difference,
    integration_algebra,
    laurent_algebra,
    laurent_pole_projection,
    matrix_algebra,
    noncommutative_standard_algebra,
    riemann_integral,
    standard_sum_operator,
    summation_algebra,
    triangular_projection,
)
from rbx.polynomials import CPoly, NCPoly, Word

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
        def data(_):
            return st.dictionaries(_words(), rationals, max_size=4)

        @staticmethod
        def fast(_, terms):
            return fast_cls({Word(w): c for w, c in terms.items()})

        @staticmethod
        def ref(_, terms):
            return ref_cls({ref.Word(w): c for w, c in terms.items()})

        @staticmethod
        def view(p):
            return {w.letters: c for w, c in p.terms.items()}

        @staticmethod
        def canonical(p):
            keys_ok = fast_cls is NCPoly or all(list(w) == sorted(w) for w in p.num)
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
            # no stored zeros, the whole window in lowest terms (so the zero
            # window over 1), and each slot canonical once built
            values = [c for m in s.num for c in m.values()]
            return all(values) and _lowest(values, s.den) and all(map(inner.canonical, s.entries))

    return Kind


KINDS = {
    "matrix2": (Matrix, 2),
    "matrix3": (Matrix, 3),
    "matrix4": (Matrix, 4),
    "laurent": (Laurent, None),
    "polyfunction": (Poly, None),
    "ncpoly": (NC, None),
    "cpoly": (COMM, None),
    "summation-seq": (_seq_kind(None), None),
    "standard-nc-seq": (_seq_kind(NC), None),
    "standard-comm-seq": (_seq_kind(COMM), None),
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


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_powers_are_repeated_products(name, data):
    kind, param = KINDS[name]
    a = data.draw(kind.data(param))
    fa, ra = kind.fast(param, a), kind.ref(param, a)
    want = ra
    for n in range(1, 5):
        if n > 1:
            try:
                want = want * ra
            except ConfigError:  # past a Laurent pole bound or a PolyFunction degree cap
                with pytest.raises(ConfigError):
                    fa ** n
                break
        _agree(kind, fa ** n, want)
    for n in (0, -1):
        with pytest.raises(ValueError):
            fa ** n


@pytest.mark.parametrize("name", ["ncpoly", "cpoly"])
def test_products_with_a_zero_operand(name):
    kind, _ = KINDS[name]
    terms = {(1,): Fraction(1, 2), (2, 1): Fraction(-3), (): Fraction(2, 3)}
    for zero_left in (True, False):
        fa, fz = kind.fast(None, terms), kind.fast(None, {})
        ra, rz = kind.ref(None, terms), kind.ref(None, {})
        fast, reference = (fz * fa, rz * ra) if zero_left else (fa * fz, ra * rz)
        _agree(kind, fast, reference)
        assert type(fast) is type(fa) and fast == kind.fast(None, {})


# PolyFunction differences a - b over unequal denominators, of unequal
# lengths or with top coefficients that cancel, and the degree and
# denominator of a - b: the one pass of the sum pads, scales to the lcm and
# signs, and the result must still be trimmed and reduced
F = Fraction
POLY_DIFFERENCES = (
    ([F(1, 2), F(2, 3)], [F(1, 4), F(-1, 3), F(3, 4), 7], 3, 4),
    ([F(1, 6), F(1, 2), F(5, 3)], [F(1, 4), F(3, 4), F(5, 3)], 1, 12),
    ([1, F(1, 2), F(1, 3)], [F(1, 5), F(1, 2), F(1, 3)], 0, 5),
    ([3, 0, 1], [F(1, 6), 0, 1], 0, 6),
    ([], [F(1, 2), F(1, 3)], 1, 6),
)


@pytest.mark.parametrize("a, b, degree, den", POLY_DIFFERENCES)
def test_polyfunction_differences_over_unequal_denominators(a, b, degree, den):
    fa, fb, ra, rb = Poly.fast(None, a), Poly.fast(None, b), Poly.ref(None, a), Poly.ref(None, b)
    assert fa.den != fb.den
    for fast, reference in ((fa - fb, ra - rb), (fb - fa, rb - ra), (fa + fb, ra + rb)):
        _agree(Poly, fast, reference)
    for diff in (fa - fb, fb - fa):
        assert (diff.degree, diff.den) == (degree, den)


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
# the generated matrix product kernel: at 1, at every size the CLI multiplies
# (2 to 4, and 8 for the tensor cube of a 2 x 2 r-matrix), and at 0 below

PRODUCT_DIMS = (1, 2, 3, 4, 8)


def _matrix_rows(rng, n):
    """Entries over denominators 1..6, and about one row in four all zero."""
    entry = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return [[0] * n if rng.random() < 0.25 else [entry() for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", PRODUCT_DIMS)
def test_matrix_product_at_every_kernel_size(n):
    rng = random.Random(n)
    for _ in range(20):
        a, b = _matrix_rows(rng, n), _matrix_rows(rng, n)
        for x, y in ((a, b), (b, a), (a, a)):
            fast = RatMatrix(x) * RatMatrix(y)
            _agree(Matrix, fast, ref.RatMatrix(x) * ref.RatMatrix(y))
            assert Matrix.canonical(fast) and fast.dim == n


def test_empty_matrix_product():
    fast = RatMatrix.zeros(0) * RatMatrix.identity(0)
    _agree(Matrix, fast, ref.RatMatrix.zeros(0) * ref.RatMatrix.identity(0))
    assert (fast.dim, fast.num, fast.den, str(fast)) == (0, (), 1, "[]")
    with pytest.raises(ValueError, match="dimension mismatch"):
        RatMatrix.zeros(0) * RatMatrix.zeros(1)


# ---------------------------------------------------------------------------
# the short-cuts of the polynomial kernels, one by one and inside windows

POLY_KINDS = ["ncpoly", "cpoly"]
HALVES = {(1,): Fraction(1, 2), (2, 1): Fraction(3, 2)}  # numerators 1, 3 over 2


@pytest.mark.parametrize("name", POLY_KINDS)
@pytest.mark.parametrize("c", [Fraction(2), Fraction(-2), Fraction(2, 3), Fraction(4, 3), 1, -1])
def test_constant_times_polynomial_is_reduced(name, c):
    kind, _ = KINDS[name]
    p, rp = kind.fast(None, HALVES), kind.ref(None, HALVES)
    k, rk = kind.fast(None, {(): c}), kind.ref(None, {(): c})
    for fast, reference in ((k * p, rk * rp), (p * k, rp * rk), (c * p, c * rp)):
        assert type(fast) is type(p)
        _agree(kind, fast, reference)
    # 2 * (1/2 x1 + 3/2 x2x1) = x1 + 3 x2x1: the denominator 2 must cancel
    assert (kind.fast(None, {(): Fraction(2)}) * p).den == 1


@pytest.mark.parametrize("name", POLY_KINDS)
def test_sums_with_a_zero_operand(name):
    kind, _ = KINDS[name]
    p, z = kind.fast(None, HALVES), kind.fast(None, {})
    rp, rz = kind.ref(None, HALVES), kind.ref(None, {})
    pairs = ((z + p, rz + rp), (p + z, rp + rz), (z - p, rz - rp), (p - z, rp - rz),
             (z - z, rz - rz), (0 * p, 0 * rp))
    for fast, reference in pairs:
        assert type(fast) is type(p)
        _agree(kind, fast, reference)


@pytest.mark.parametrize("name", POLY_KINDS)
def test_differences_that_cancel(name):
    kind, _ = KINDS[name]
    cases = (
        (HALVES, dict(HALVES)),  # everything cancels: zero over 1
        ({(1,): Fraction(1, 2), (3,): Fraction(1, 4)}, {(3,): Fraction(1, 4)}),  # 4 -> 2
        ({(1,): Fraction(1, 2), (2,): Fraction(1, 3)}, {(2,): Fraction(1, 3)}),  # 6 -> 2
        ({(): Fraction(5, 6), (1,): Fraction(1, 3)}, {(): Fraction(1, 3)}),  # 6 -> 6
    )
    for a, b in cases:
        fast = kind.fast(None, a) - kind.fast(None, b)
        _agree(kind, fast, kind.ref(None, a) - kind.ref(None, b))
        negated = kind.fast(None, b) - kind.fast(None, a)
        _agree(kind, negated, kind.ref(None, b) - kind.ref(None, a))
    assert (kind.fast(None, HALVES) - kind.fast(None, HALVES)).den == 1


# zero, two constants and two general entries
MIXED = [{}, {(): Fraction(2)}, {(): Fraction(-1, 2)}, HALVES, {(): 1, (2,): Fraction(1, 3)}]


@pytest.mark.parametrize("name", ["standard-nc-seq", "standard-comm-seq"])
@pytest.mark.parametrize("shift", range(len(MIXED)))
def test_windows_mixing_zero_constant_and_general_entries(name, shift):
    kind, _ = KINDS[name]
    a, b = MIXED, MIXED[shift:] + MIXED[:shift]
    fa, fb, ra, rb = kind.fast(None, a), kind.fast(None, b), kind.ref(None, a), kind.ref(None, b)
    for fast, reference in (
        (fa + fb, ra + rb), (fa - fb, ra - rb), (fa * fb, ra * rb), (fb * fa, rb * ra),
        (-fa, -ra), (Fraction(2, 3) * fa, Fraction(2, 3) * ra), (0 * fa, 0 * ra),
        (kind.R(fa), kind.ref_R(ra)), (kind.R(fa * fb), kind.ref_R(ra * rb)),
    ):
        _agree(kind, fast, reference)
        assert fast.poly is type(fa.entries[0])
        assert all(type(p) is fast.poly for p in fast.entries)
    assert fa - fa == 0 * fb


# slots over different denominators (the window's is their lcm, 60), and
# slots of 5 and 9 letters: products and cubes keep every word, up to 27 letters
WINDOWS = {
    "denominators": (
        [{(1,): Fraction(1, 2)}, {(): Fraction(1, 3), (2,): Fraction(2, 5)}, {(1, 2): Fraction(3, 4)}],
        [{(): Fraction(1, 6)}, {(2, 1): Fraction(5, 7)}, {(): Fraction(4, 3)}],
    ),
    "long-words": (
        [{(1, 2, 3, 4, 5): Fraction(1, 3), (): Fraction(1, 2)}, {(1,) * 9: 1}, {(3, 2, 1, 2, 3): 4}],
        [{(5, 4, 3, 2, 1): Fraction(3, 2)}, {(2, 1): Fraction(1, 6)}, {(1, 1, 2, 2, 3): 1}],
    ),
}


@pytest.mark.parametrize("name", ["standard-nc-seq", "standard-comm-seq"])
@pytest.mark.parametrize("case", sorted(WINDOWS))
def test_windows_on_chosen_slots(name, case):
    kind, _ = KINDS[name]
    a, b = WINDOWS[case]
    fa, fb, ra, rb = kind.fast(None, a), kind.fast(None, b), kind.ref(None, a), kind.ref(None, b)
    for fast, reference in (
        (fa + fb, ra + rb), (fa - fb, ra - rb), (fa * fb, ra * rb), (fb * fa, rb * ra),
        (fa * fa, ra * ra), (Fraction(3, 2) * fb, Fraction(3, 2) * rb), (fa ** 3, ra ** 3),
        (kind.R(fb), kind.ref_R(rb)), ((fa + fb) - fb, ra),
    ):
        _agree(kind, fast, reference)
    # every slot cancels: the zero window over 1
    zero = (fa - fb) - (fa - fb)
    assert (zero.num, zero.den) == (({},) * 3, 1) and zero == 0 * fa
    with pytest.raises(TypeError):  # finite_difference takes rational windows only
        finite_difference(fa)
    if case == "denominators":
        assert fa.den == 60
    if case == "long-words":
        assert fa.entries[1] == fa.poly.letter(1) ** 9


# ---------------------------------------------------------------------------
# samplers that draw integers: the same elements as the Fraction-built ones


def _fractions(rng, count, top, den_top):
    return [Fraction(rng.randint(-top, top), rng.randint(1, den_top)) for _ in range(count)]


def _standard_draws(poly, window):
    """The standard sampler's draws as per-slot Fraction polynomials, in its order."""

    def built(rng):
        entries = [poly({Word(()): Fraction(rng.randint(-2, 2))})] * window
        for _ in range(2):
            slot = rng.randint(1, window - 1)
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
            entries[slot] = entries[slot] + poly({Word((slot,)): c})
        return SeqElement(entries)

    return built


WIDE = laurent_algebra(12, 12)  # the CLI's Laurent carrier at --order 3


def _matrix_sampler(n):
    return matrix_algebra(n).random_element, lambda rng: RatMatrix(
        [_fractions(rng, n, 3, 3) for _ in range(n)]
    )


def _summation_sampler(window):
    return summation_algebra(window).random_element, lambda rng: SeqElement(
        _fractions(rng, window, 4, 3)
    )


SAMPLERS = {
    # every --dim, and the default --window with both of its bounds
    **{f"matrix{n}": _matrix_sampler(n) for n in (2, 3, 4)},
    "summation": _summation_sampler(10),
    "summation3": _summation_sampler(3),
    "summation16": _summation_sampler(16),
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
    "standard-comm": (
        commutative_standard_algebra(10).random_element, _standard_draws(CPoly, 10),
    ),
    "standard-nc": (
        noncommutative_standard_algebra(10).random_element, _standard_draws(NCPoly, 10),
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
