"""Concrete carriers: matrices, Laurent elements, sequences, polynomials."""

from fractions import Fraction

import pytest

from rbx import (
    ConfigError,
    CPoly,
    LaurentElement,
    MonoidAlphabet,
    NCPoly,
    PolyFunction,
    RatMatrix,
    SeqElement,
    Word,
    commutative_standard_algebra,
    elementary_symmetric_check,
    finite_difference,
    integration_algebra,
    laurent_algebra,
    laurent_pole_projection,
    matrix_algebra,
    nested_sum_encoding,
    nested_sum_encoding_sum,
    noncommutative_standard_algebra,
    polynomial_derivative,
    quasi_shuffle,
    riemann_integral,
    standard_generator,
    standard_sum_operator,
    summation_algebra,
    tilde_operator,
    triangular_projection,
    check_vector_field_prelie,
)


def _rb_law_holds(alg, x, y) -> bool:
    theta = alg.weight
    lhs = alg.rb(x) * alg.rb(y)
    rhs = alg.rb(alg.rb(x) * y + x * alg.rb(y) + theta * (x * y))
    return lhs == rhs


class TestRatMatrix:
    def test_shape_and_units(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 2], [3]])
        e12 = RatMatrix.unit(2, 1, 2)
        assert e12.rows == ((0, 1), (0, 0))
        assert e12 * RatMatrix.unit(2, 2, 1) == RatMatrix.unit(2, 1, 1)
        assert RatMatrix.identity(2) * e12 == e12

    def test_str(self):
        m = RatMatrix([[1, Fraction(1, 2)], [0, 1]])
        assert str(m) == "[[1, 1/2], [0, 1]]"

    def test_linear_ops(self):
        a = RatMatrix([[1, 2], [3, 4]])
        assert Fraction(1, 2) * a == RatMatrix([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])
        assert a - a == RatMatrix.zeros(2)

    def test_zero_dimensional_matrix(self):
        z = RatMatrix.zeros(0)
        assert str(z) == "[]"
        assert z.rows == ()
        assert z * z == z == RatMatrix.identity(0)


class TestMatrixModel:
    def test_projection_keeps_upper_part(self):
        m = RatMatrix([[1, 2], [3, 4]])
        assert triangular_projection(m) == RatMatrix([[1, 2], [0, 4]])
        assert triangular_projection(triangular_projection(m)) == triangular_projection(m)

    def test_rb_law_on_all_unit_pairs(self):
        for dim in (2, 3):
            alg = matrix_algebra(dim)
            assert alg.weight == Fraction(-1)
            for x in alg.basis:
                for y in alg.basis:
                    assert _rb_law_holds(alg, x, y)

    def test_tilde_is_complementary_projection(self):
        alg = matrix_algebra(3)
        low = RatMatrix.unit(3, 3, 1)
        up = RatMatrix.unit(3, 1, 3)
        assert tilde_operator(alg, low) == low
        assert tilde_operator(alg, up) == alg.zero


class TestLaurent:
    def test_str(self):
        x = LaurentElement({-2: 3, 0: 1, 1: Fraction(-1, 4)}, 4, 6)
        assert str(x) == "3 eps^-2 + 1 - 1/4 eps"
        assert str(LaurentElement({}, 4, 6)) == "0"

    def test_pole_overflow_raises(self):
        with pytest.raises(ConfigError):
            LaurentElement({-5: 1}, 4, 6)
        a = LaurentElement({-3: 1}, 4, 6)
        b = LaurentElement({-2: 1}, 4, 6)
        with pytest.raises(ConfigError):
            a * b

    def test_high_exponents_drop_silently(self):
        a = LaurentElement({4: 1}, 4, 6)
        assert (a * a).coeffs == {}

    def test_bounds_must_match(self):
        a = LaurentElement({0: 1}, 4, 6)
        b = LaurentElement({0: 1}, 4, 8)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a == b

    def test_polar_split(self):
        x = LaurentElement({-1: 2, 0: 1, 3: 5}, 4, 6)
        pole = laurent_pole_projection(x)
        assert pole.coeffs == {-1: 2}
        assert laurent_pole_projection(pole) == pole
        assert laurent_pole_projection(x - pole) == LaurentElement({}, 4, 6)

    def test_rb_law_on_basis_pairs(self):
        alg = laurent_algebra()
        assert alg.weight == Fraction(-1)
        for x in alg.basis:
            for y in alg.basis:
                assert _rb_law_holds(alg, x, y)


class TestSeqElement:
    def test_str(self):
        s = SeqElement([Fraction(1), Fraction(-2, 3)])
        assert str(s) == "(1; -2/3)"

    def test_window_discipline(self):
        with pytest.raises(ValueError):
            SeqElement([])
        with pytest.raises(ValueError):
            SeqElement([Fraction(1)]) + SeqElement([Fraction(1), Fraction(2)])

    def test_entries_are_rationals_or_one_polynomial_class_and_cap(self):
        bad = (
            [NCPoly.one(8), Fraction(1)],
            [Fraction(1), NCPoly.one(8)],
            [NCPoly.one(8), NCPoly.one(4)],
            [NCPoly.one(8), NCPoly.one(None)],
            [NCPoly.one(8), CPoly.one(8)],
            [CPoly.one(8), NCPoly.one(8)],
            [Fraction(1), "1/2"],
            [1.5],
        )
        for entries in bad:
            with pytest.raises(ValueError):
                SeqElement(entries)
        assert SeqElement([1, Fraction(1, 2)]).entries == (1, Fraction(1, 2))
        assert SeqElement([CPoly.one(4), CPoly.zero(4)]).entries == (CPoly.one(4), CPoly.zero(4))

    def test_polynomial_windows_of_different_caps_do_not_combine(self):
        a = noncommutative_standard_algebra(3, 4).one
        b = noncommutative_standard_algebra(3, 8).one
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a == b):
            with pytest.raises(ValueError):
                op()

    def test_only_rationals_scale_a_window(self):
        for w in (noncommutative_standard_algebra(3, 4).one, summation_algebra(3).one):
            assert w.__rmul__(NCPoly.one(4)) is NotImplemented
            assert w.__rmul__(1.5) is NotImplemented
            with pytest.raises(TypeError):
                1.5 * w

    def test_windows_are_unhashable(self):
        assert SeqElement.__hash__ is None
        for s in (SeqElement([Fraction(1)]), standard_generator(3, 4)):
            with pytest.raises(TypeError):
                hash(s)

    def test_pow(self):
        s = SeqElement([Fraction(2), Fraction(-1)])
        assert s ** 3 == SeqElement([Fraction(8), Fraction(-1)])
        with pytest.raises(ValueError):
            s ** 0
        with pytest.raises(ValueError):
            s ** -1


class TestSummation:
    def test_operator_is_shifted_partial_sum(self):
        s = SeqElement([Fraction(1)] * 4)
        assert summation_algebra(4).rb(s) == SeqElement(
            [Fraction(0), Fraction(1), Fraction(2), Fraction(3)]
        )

    def test_finite_difference_inverts(self):
        s = SeqElement([Fraction(3), Fraction(-1), Fraction(4), Fraction(1)])
        assert finite_difference(summation_algebra(4).rb(s)) == SeqElement(s.entries[:-1])

    def test_rb_law_on_basis_pairs(self):
        alg = summation_algebra(6)
        assert alg.weight == Fraction(1)
        for x in alg.basis:
            for y in alg.basis:
                assert _rb_law_holds(alg, x, y)


class TestStandardAlgebra:
    def test_partial_sums_of_the_generator(self):
        gen = standard_generator(4, 8)
        got = standard_sum_operator(gen)
        x = lambda k: CPoly.letter(k, 8)
        assert got == SeqElement(
            [CPoly.zero(8), CPoly.zero(8), x(1), x(1) + x(2)]
        )

    def test_iterated_sums_give_elementary_symmetric(self):
        alg = commutative_standard_algebra(4, 8)
        gen = standard_generator(4, 8)
        second = alg.rb(alg.rb(gen) * gen)
        assert second.entries[3] == CPoly({Word((1, 2)): Fraction(1)}, 8)

    def test_elementary_symmetric_check_passes(self):
        for n in (1, 2, 3):
            for k in (3, 5):
                assert elementary_symmetric_check(n, k, window=6, cap=8).status == "pass"

    def test_elementary_symmetric_check_bounds(self):
        with pytest.raises(ConfigError):
            elementary_symmetric_check(0, 3)
        with pytest.raises(ConfigError):
            elementary_symmetric_check(1, 10, window=10)
        with pytest.raises(ConfigError):
            elementary_symmetric_check(9, 3, cap=8)

    def test_rb_law_noncommutative(self):
        alg = noncommutative_standard_algebra(5, 6)
        gen = standard_generator(5, 6, "nc")
        assert _rb_law_holds(alg, gen, gen)
        assert _rb_law_holds(alg, alg.rb(gen), gen)

    def test_nested_sums_realize_the_quasi_shuffle(self):
        alg = commutative_standard_algebra(6, 8)
        gen = standard_generator(6, 8)
        x = lambda k: CPoly.letter(k, 8)
        one_sum = nested_sum_encoding(alg, gen, Word((1,)))
        assert one_sum.entries[3] == x(1) + x(2)
        u, v = Word((1,)), Word((2,))
        lhs = nested_sum_encoding(alg, gen, u) * nested_sum_encoding(alg, gen, v)
        rhs = nested_sum_encoding_sum(
            alg, gen, quasi_shuffle(u, v, MonoidAlphabet(4))
        )
        assert lhs == rhs


class TestIntegration:
    def test_integral_of_monomials(self):
        t2 = PolyFunction.monomial(2)
        assert riemann_integral(t2) == Fraction(1, 3) * PolyFunction.monomial(3)
        assert riemann_integral(PolyFunction.one()) == PolyFunction.monomial(1)

    def test_derivative_inverts_integral(self):
        p = PolyFunction([1, Fraction(-1, 2), 0, 3])
        assert polynomial_derivative(riemann_integral(p)) == p

    def test_str(self):
        p = PolyFunction([0, 1, Fraction(1, 2)])
        assert str(p) == "1/2 t^2 + t"
        assert str(PolyFunction.zero()) == "0"

    def test_cap_overflow_raises(self):
        with pytest.raises(ConfigError):
            PolyFunction([0] * 8 + [1], cap=6)
        with pytest.raises(ConfigError):
            riemann_integral(PolyFunction.monomial(6, cap=6))
        t4 = PolyFunction.monomial(4, cap=6)
        with pytest.raises(ConfigError):
            t4 * t4

    def test_weight_zero_rb_law(self):
        alg = integration_algebra(24)
        assert alg.weight == Fraction(0)
        for x in alg.basis:
            for y in alg.basis:
                assert _rb_law_holds(alg, x, y)


def test_vector_field_prelie():
    assert check_vector_field_prelie(4).status == "pass"
    t = PolyFunction.monomial(1)
    t2 = PolyFunction.monomial(2)
    assert t * polynomial_derivative(t2) == 2 * t2


# Two carriers of one class but different shapes: + - * raise ValueError, and
# so does ==. Carriers of different classes raise ValueError on + - * too, and
# are unequal. The third entry is what == gives on the pair (their
# coefficients agree), or the error it raises.
SHAPES = {
    "matrix dims": (RatMatrix.identity(2), RatMatrix.identity(3), ValueError),
    "summation windows": (summation_algebra(3).one, summation_algebra(4).one, ValueError),
    "standard windows": (
        noncommutative_standard_algebra(3, 4).one,
        noncommutative_standard_algebra(4, 4).one,
        ValueError,
    ),
    "polynomial caps": (PolyFunction([1], 24), PolyFunction([1], 30), ValueError),
    "laurent bounds": (LaurentElement({0: 1}, 4, 6), LaurentElement({0: 1}, 4, 8), ValueError),
    "word caps": (NCPoly.one(4), NCPoly.one(5), ValueError),
    "nc against comm": (NCPoly.one(4), CPoly.one(4), False),
    "comm against nc": (CPoly.one(4), NCPoly.one(4), False),
    "matrix against polynomial": (RatMatrix.identity(2), PolyFunction([1]), False),
    "polynomial against matrix": (PolyFunction([1]), RatMatrix.identity(2), False),
    "laurent against words": (LaurentElement({0: 1}, 4, 6), NCPoly.one(4), False),
    "words against laurent": (NCPoly.one(4), LaurentElement({0: 1}, 4, 6), False),
    "polynomial against words": (PolyFunction([1], 4), NCPoly.one(4), False),
    "summation against standard window": (
        SeqElement([Fraction(1, 2)] * 3),
        noncommutative_standard_algebra(3, 4).one,
        ValueError,
    ),
    "nc window against comm window": (
        noncommutative_standard_algebra(3, 4).one,
        commutative_standard_algebra(3, 4).one,
        ValueError,
    ),
    "summation against matrix": (summation_algebra(3).one, RatMatrix.identity(2), False),
    "matrix against summation": (RatMatrix.identity(2), summation_algebra(3).one, False),
    "standard window against words": (noncommutative_standard_algebra(3, 4).one, NCPoly.one(4), False),
    "words against standard window": (NCPoly.one(4), noncommutative_standard_algebra(3, 4).one, False),
}


@pytest.mark.parametrize("case", SHAPES)
def test_mismatched_shapes(case):
    a, b, eq = SHAPES[case]
    for op in (lambda: a + b, lambda: a - b, lambda: a * b):
        with pytest.raises(ValueError):
            op()
    if eq is ValueError:
        with pytest.raises(ValueError):
            a == b
    else:
        assert (a == b) is eq and (a != b) is not eq
