"""Derived structure of a weighted Rota-Baxter operator."""

from dataclasses import replace
from fractions import Fraction

import pytest

from rbx import (
    RatMatrix,
    SamplePlan,
    b_operator,
    check_double_assoc_and_hom,
    check_linearity,
    check_prelie_axiom,
    check_rb_law,
    check_weight_rescale,
    double_product,
    half_shuffles,
    integration_algebra,
    laurent_algebra,
    matrix_algebra,
    prelie_left,
    prelie_right,
    summation_algebra,
    tilde_operator,
)

EX = SamplePlan("exhaustive")
M3 = matrix_algebra(3)
E = lambda i, j: RatMatrix.unit(3, i, j)


class TestSamplePlan:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SamplePlan("all-of-them")

    def test_random_plan_refuses_an_empty_sample(self):
        for trials in (0, -1):
            with pytest.raises(ValueError):
                SamplePlan("random", trials=trials)
        assert SamplePlan("exhaustive", trials=0).pairs(matrix_algebra(2))

    def test_exhaustive_counts(self):
        alg = matrix_algebra(2)
        assert len(EX.pairs(alg)) == 16
        assert len(EX.triples(alg)) == 64

    def test_random_is_seeded(self):
        alg = summation_algebra(5)
        plan = SamplePlan("random", trials=7, seed=11)
        assert plan.singles(alg) == plan.singles(alg)
        assert plan.pairs(alg) == plan.pairs(alg)


class TestDoubleProduct:
    def test_law_checks_pass_exhaustively(self):
        # triple double-products stack three basis poles, so size the bounds up
        for alg in (matrix_algebra(2), laurent_algebra(12, 12), summation_algebra(6)):
            assert check_rb_law(alg, EX).status == "pass"
            assert check_linearity(alg, EX).status == "pass"
            assert check_double_assoc_and_hom(alg, EX).status == "pass"

    def test_half_shuffles_recombine(self):
        for x in M3.basis[:4]:
            for y in M3.basis[:4]:
                up, down = half_shuffles(M3, x, y)
                assert up + down + M3.weight * (x * y) == double_product(M3, x, y)

    def test_integration_double_product_drops_weight_term(self):
        alg = integration_algebra()
        p, q = alg.basis[1], alg.basis[2]
        assert double_product(alg, p, q) == alg.rb(p) * q + p * alg.rb(q)


class TestTildeAndB:
    def test_tilde_complements_rb(self):
        for x in M3.basis:
            assert M3.rb(x) + tilde_operator(M3, x) == -(M3.weight * x)

    def test_tilde_satisfies_the_same_law(self):
        for x, y in EX.pairs(M3):
            lhs = tilde_operator(M3, x) * tilde_operator(M3, y)
            rhs = tilde_operator(
                M3,
                tilde_operator(M3, x) * y + x * tilde_operator(M3, y) + M3.weight * (x * y),
            )
            assert lhs == rhs

    def test_b_operator_on_matrix_units(self):
        # theta = -1 here, so B = 2R - id: fixes the upper part, negates the rest
        assert b_operator(M3, E(1, 2)) == E(1, 2)
        assert b_operator(M3, E(2, 1)) == -E(2, 1)
        assert b_operator(M3, E(1, 2)) * b_operator(M3, E(2, 1)) == -E(1, 1)

    def test_b_satisfies_the_modified_law(self):
        theta2 = M3.weight * M3.weight
        for x, y in EX.pairs(M3):
            lhs = b_operator(M3, x) * b_operator(M3, y)
            rhs = b_operator(M3, b_operator(M3, x) * y + x * b_operator(M3, y))
            assert lhs == rhs - theta2 * (x * y)


class TestPreLie:
    def test_axiom_checks_pass(self):
        assert check_prelie_axiom(matrix_algebra(2), EX).status == "pass"
        assert check_prelie_axiom(summation_algebra(5), EX).status == "pass"

    def test_hand_value(self):
        # R(E12) E21 - E21 R(E12) + E21 E12 with R the triangular projection
        assert prelie_left(M3, E(1, 2), E(2, 1)) == E(1, 1)

    def test_right_is_the_mirror(self):
        for x, y in EX.pairs(matrix_algebra(2)):
            alg = matrix_algebra(2)
            assert prelie_right(alg, x, y) == -prelie_left(alg, y, x)


class TestRescaling:
    def test_rescaled_weight_and_name(self):
        scaled = M3.rescaled(Fraction(-1, 2))
        assert scaled.weight == Fraction(1, 2)
        assert scaled.name == "matrix3*[beta=-1/2]"
        assert scaled.rb(E(1, 2)) == Fraction(-1, 2) * E(1, 2)

    def test_rescaled_operator_stays_rota_baxter(self):
        assert check_weight_rescale(M3, Fraction(2), EX).status == "pass"
        assert check_weight_rescale(summation_algebra(5), Fraction(-3), EX).status == "pass"


def _corrupt_projection(m: RatMatrix) -> RatMatrix:
    return RatMatrix(
        [
            [v if i <= j or (i, j) == (2, 0) else 0 for j, v in enumerate(row)]
            for i, row in enumerate(m.rows)
        ]
    )


def test_broken_operator_yields_a_counterexample():
    bad = replace(M3, name="matrix3-corrupt", rb=_corrupt_projection)
    res = check_rb_law(bad, EX)
    assert res.status == "fail"
    assert res.counterexample is not None
    assert "lhs=" in res.counterexample and "rhs=" in res.counterexample
