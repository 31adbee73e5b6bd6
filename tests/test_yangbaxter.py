"""Tensor and operator Yang-Baxter equations, dendriform splitting."""

from fractions import Fraction

import pytest

from rbx.algebra import SamplePlan, b_operator, check_rb_law
from rbx.errors import ConfigError
from rbx.models import (
    RatMatrix,
    integration_algebra,
    laurent_algebra,
    matrix_algebra,
    riemann_integral,
)
from rbx.yangbaxter import (
    TensorR,
    aybe_check,
    check_dendriform,
    check_modified_ybe,
    check_operator_ybe,
    kron,
    tensor_rb_algebra,
)

EX = SamplePlan("exhaustive")
E2 = lambda i, j: RatMatrix.unit(2, i, j)
NIL = TensorR(((E2(1, 2), E2(1, 2)),))


class TestTensor:
    def test_kron(self):
        assert kron(E2(1, 2), E2(1, 2)) == RatMatrix.unit(4, 1, 4)
        assert kron(RatMatrix.identity(2), RatMatrix.identity(2)) == RatMatrix.identity(4)
        a = RatMatrix([[1, 2], [3, 4]])
        b = RatMatrix([[0, 1], [1, 0]])
        got = kron(a, b)
        assert got.rows[0] == (0, 1, 0, 2)
        assert got.rows[3] == (3, 0, 4, 0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            TensorR(((E2(1, 2), RatMatrix.unit(3, 1, 2)),))

    def test_embeddings(self):
        r12, r13, r23 = NIL.embeddings()
        eye = RatMatrix.identity(2)
        assert r12 == kron(kron(E2(1, 2), E2(1, 2)), eye)
        assert r13 == kron(kron(E2(1, 2), eye), E2(1, 2))
        assert r23 == kron(kron(eye, E2(1, 2)), E2(1, 2))


class TestAYBE:
    def test_nilpotent_solution_passes_both_modes(self):
        for mode in ("printed", "standard"):
            assert aybe_check(NIL, mode).status == "pass"

    def test_diagonal_tensor_fails_both_modes(self):
        r = TensorR(((E2(1, 1), E2(1, 1)),))
        for mode in ("printed", "standard"):
            res = aybe_check(r, mode)
            assert res.status == "fail"
            assert "residual" in res.counterexample

    def test_empty_tensor_is_a_solution(self):
        assert aybe_check(TensorR(())).status == "pass"

    def test_empty_tensor_goes_through_the_evaluator(self):
        # no early pass: the dim-0 residual is formed and compared, so the
        # mode is checked too
        with pytest.raises(ValueError):
            aybe_check(TensorR(()), "folded")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            aybe_check(NIL, "folded")


class TestInducedOperator:
    def test_hand_values(self):
        rb = tensor_rb_algebra(NIL).rb
        assert rb(E2(2, 1)) == E2(1, 2)
        assert rb(E2(1, 1)) == RatMatrix.zeros(2)
        assert rb(E2(2, 2)) == RatMatrix.zeros(2)

    def test_a_tensor_off_the_aybe_fails_the_operator_checks(self):
        # E11 (x) E11 induces x -> E11 x E11, which is not Rota-Baxter of weight 0
        alg = tensor_rb_algebra(TensorR(((E2(1, 1), E2(1, 1)),)))
        assert check_rb_law(alg, EX).status == "fail"
        assert check_dendriform(alg, EX).status == "fail"

    def test_induced_algebra_is_weight_zero_rota_baxter(self):
        alg = tensor_rb_algebra(NIL)
        assert alg.weight == Fraction(0)
        assert alg.name == "tensor-rb[2]"
        assert check_rb_law(alg, EX).status == "pass"


class TestDendriform:
    def test_axioms_on_weight_zero_models(self):
        for alg in (integration_algebra(), tensor_rb_algebra(NIL)):
            res = check_dendriform(alg, EX)
            assert res.status == "pass", res.counterexample

    def test_hand_triple(self):
        alg = integration_algebra()
        one, t = alg.basis[0], alg.basis[1]
        up = lambda x, y: x * riemann_integral(y)
        down = lambda x, y: riemann_integral(x) * y
        lhs = up(up(one, t), one)
        rhs = up(one, up(t, one) + down(t, one))
        assert lhs == rhs

    def test_needs_weight_zero(self):
        with pytest.raises(ConfigError):
            check_dendriform(matrix_algebra(2), EX)


class TestOperatorYBE:
    def test_weight_zero_models(self):
        for alg in (integration_algebra(), tensor_rb_algebra(NIL)):
            res = check_operator_ybe(alg, plan=EX)
            assert res.status == "pass", res.counterexample

    def test_carrier_weight_must_vanish_without_explicit_operator(self):
        with pytest.raises(ConfigError):
            check_operator_ybe(matrix_algebra(2), plan=EX)


class TestModifiedYBE:
    def test_models(self):
        for alg in (matrix_algebra(2), matrix_algebra(3), laurent_algebra(12, 12)):
            res = check_modified_ybe(alg, EX)
            assert res.status == "pass", res.counterexample

    def test_lie_form_by_hand(self):
        alg = matrix_algebra(2)
        x, y = E2(1, 2), E2(2, 1)
        b = lambda m: b_operator(alg, m)
        br = lambda u, v: u * v - v * u
        lhs = br(b(x), b(y))
        rhs = b(br(b(x), y) + br(x, b(y))) - alg.weight**2 * br(x, y)
        assert lhs == rhs
        assert lhs == -E2(1, 1) + E2(2, 2)
