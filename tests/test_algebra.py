"""Derived structure of a weighted Rota-Baxter operator."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from rbx import (
    BSOperands,
    ConfigError,
    LambdaSeries,
    RatMatrix,
    SamplePlan,
    TensorR,
    aybe_check,
    b_operator,
    check_atkinson,
    check_bogoliubov,
    check_bohnenblust_spitzer,
    check_double_assoc_and_hom,
    check_dendriform,
    check_flows_bch,
    check_flows_product_law,
    check_linearity,
    check_modified_ybe,
    check_nc_spitzer,
    check_operator_ybe,
    check_prelie_axiom,
    check_rb_law,
    check_weight_rescale,
    double_product,
    integration_algebra,
    laurent_algebra,
    matrix_algebra,
    prelie_left,
    prelie_magnus,
    spitzer_check_commutative,
    summation_algebra,
    tilde_operator,
)
from rbx.algebra import CUT, first_failure
from rbx.cli import SuiteConfig, default_models
from rbx.identities import atkinson_lemma

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
        assert plan.pairs(alg) == plan.pairs(alg)
        assert plan.triples(alg) == plan.triples(alg)

    def test_a_shared_stream_draws_what_fresh_generators_draw(self):
        # every call order of a plan's and a narrowed plan's samples, on every
        # registry carrier in turn and again after switching back, against a
        # fresh random.Random(seed) per call
        registry = list(default_models(SuiteConfig()).values())
        arity = {"pairs": 2, "triples": 3}
        fresh = {}
        for alg in registry:
            for trials, call in itertools.product((5, 2), arity):
                rng = random.Random(3)
                fresh[alg.name, trials, call] = [
                    tuple(alg.random_element(rng) for _ in range(arity[call]))
                    for _ in range(trials)
                ]
        calls = [(0, "pairs"), (0, "triples"), (1, "pairs"), (1, "triples")]
        for order in itertools.permutations(calls):
            plan = SamplePlan("random", trials=5, seed=3)
            plans = (plan, plan.narrowed(2))
            for alg in registry + registry[::-1]:
                for which, call in order:
                    got = getattr(plans[which], call)(alg)
                    assert got == fresh[alg.name, plans[which].trials, call]
        # a plan replaced at another seed shares the stream but not its draws
        alg, rng = registry[0], random.Random(4)
        draws = [alg.random_element(rng) for _ in range(10)]
        assert replace(plan, seed=4).pairs(alg) == list(zip(draws[::2], draws[1::2]))


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
                up, down = x * M3.rb(y), M3.rb(x) * y
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


class TestFirstFailure:
    @staticmethod
    def _laws(seen):
        def laws(a, b):
            seen.append((a, b))
            yield "sum", a + b, b + a
            yield "equal", a, b
            seen.append("after")
            yield "same", a, a

        return laws

    def test_none_when_every_law_holds(self):
        laws = lambda a, b: [("sum", a + b, b + a)]
        assert first_failure("ints", [(1, 2), (3, 4)], laws, "ab") is None

    def test_stops_at_the_first_failing_law_and_sample(self):
        seen = []
        bad = first_failure("ints", [(1, 1), (2, 5), (3, 7)], self._laws(seen), "ab")
        assert seen == [(1, 1), "after", (2, 5)]
        assert bad == "model=ints; law=equal; a=2; b=5; lhs=2; rhs=5; diff=-3"

    def test_renders_the_input_names_in_order(self):
        names = ["F1", "F2"]
        bad = first_failure("ints", [(4, 9)], lambda *fs: [("law", sum(fs), 0)], names)
        assert bad == "model=ints; law=law; F1=4; F2=9; lhs=13; rhs=0; diff=13"

    def test_cuts_every_value_and_marks_its_length(self):
        big = 10 ** (3 * CUT)
        bad = first_failure("ints", [(big,)], lambda x: [("law", x, 0)], "x")
        mark = f"...[{3 * CUT + 1} chars]"
        assert bad.count(mark) == 3  # x, lhs and diff; rhs=0 is short
        assert len(bad) < 3 * (CUT + len(mark)) + 100

    def test_an_empty_sample_is_a_configuration_error(self):
        with pytest.raises(ConfigError):
            first_failure("ints", [], lambda a: [("law", a, a)], "a")

    def test_an_empty_basis_does_not_pass(self):
        m2 = matrix_algebra(2)
        empty = replace(m2, basis=(), rb=lambda m: 2 * m2.rb(m))
        for check in (check_rb_law, check_double_assoc_and_hom):
            with pytest.raises(ConfigError):
                check(empty, EX)


def _doubled(alg):
    return replace(alg, rb=lambda x: 2 * alg.rb(x))


_M2_ID0 = replace(matrix_algebra(2), name="matrix2-id", weight=Fraction(0), rb=lambda m: m)
_RND = SamplePlan("random", 10, 3)
_X = RatMatrix.unit(3, 1, 2) + RatMatrix.unit(3, 2, 1)
_LAURENT = _doubled(laurent_algebra(16, 16))
_L_X = LambdaSeries(_LAURENT, (_LAURENT.zero, _LAURENT.one, _LAURENT.basis[1]))
_S5 = _doubled(summation_algebra(5))
_RNG = random.Random(1)
_F = tuple(M3.random_element(_RNG) for _ in range(3))
_D3 = _doubled(M3)
_omega = lambda x: prelie_magnus(_D3, x, 3).omega

# one row per check family: (label, model name, thunk returning the CheckResult)
_BROKEN = [
    ("rb-law", "matrix3", lambda: check_rb_law(_doubled(M3), EX)),
    ("linearity", "matrix3", lambda: check_linearity(replace(M3, rb=lambda m: m + M3.one), EX)),
    ("double-product", "matrix3", lambda: check_double_assoc_and_hom(_doubled(M3), _RND)),
    ("weight-rescale", "matrix3*[beta=2]",
     lambda: check_weight_rescale(_doubled(M3), Fraction(2), _RND)),
    ("prelie", "matrix3", lambda: check_prelie_axiom(_doubled(M3), _RND)),
    ("dendriform", "matrix2-id", lambda: check_dendriform(_M2_ID0, EX)),
    ("operator-ybe", "matrix2-id", lambda: check_operator_ybe(_M2_ID0, EX)),
    ("modified-ybe", "matrix3", lambda: check_modified_ybe(_doubled(M3), _RND)),
    ("aybe", "tensor-cube[2]", lambda: aybe_check(
        TensorR(((RatMatrix.unit(2, 1, 1), RatMatrix.unit(2, 1, 1)),)))),
    ("atkinson", "matrix3", lambda: check_atkinson(_D3, _X, 3, atkinson_lemma(_D3, EX))),
    ("bogoliubov", "laurent[16,16]", lambda: check_bogoliubov(_LAURENT, _L_X)),
    ("spitzer", "summation[W=5]", lambda: spitzer_check_commutative(_S5, _S5.one, 3)),
    ("nc-spitzer", "matrix3", lambda: check_nc_spitzer(_doubled(M3), _X, 3)),
    ("bohnenblust-spitzer", "matrix3",
     lambda: check_bohnenblust_spitzer(BSOperands(_doubled(M3), _F), "cycles-prelie")),
    ("flows-product", "matrix3",
     lambda: check_flows_product_law(_D3, _X, E(2, 3), 3, _omega(E(2, 3)))),
    ("flows-bch", "matrix3",
     lambda: check_flows_bch(_D3, _X, E(2, 3), 3, _omega(_X), _omega(E(2, 3)))),
]


@pytest.mark.parametrize(
    "model, run", [row[1:] for row in _BROKEN], ids=[row[0] for row in _BROKEN]
)
def test_every_check_family_renders_its_counterexample(model, run):
    res = run()
    assert res.status == "fail"
    assert res.counterexample.startswith(f"model={model}; law=")
    for key in ("; lhs=", "; rhs=", "; diff="):
        assert key in res.counterexample
