"""Fixed points, Magnus/Spitzer forms, Bohnenblust-Spitzer, Bogoliubov, flows."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from rbx import cli
from rbx.algebra import SamplePlan, double_product, prelie_left, tilde_operator
from rbx.combinat import Permutation
from rbx.errors import ConfigError
from rbx.identities import (
    _log_closed_form,
    atkinson_lemma,
    bch_of_series,
    bogoliubov_decompose,
    check_atkinson,
    check_bogoliubov,
    check_bohnenblust_spitzer,
    check_flows_bch,
    check_flows_product_law,
    check_nc_spitzer,
    cycle_chain_product,
    flows_product,
    prelie_magnus,
    solve_fixed_point,
    spitzer_check_commutative,
)
from rbx.models import (
    LaurentElement,
    RatMatrix,
    commutative_standard_algebra,
    integration_algebra,
    laurent_algebra,
    laurent_pole_projection,
    matrix_algebra,
    noncommutative_standard_algebra,
    standard_generator,
    summation_algebra,
)
from rbx.series import LambdaSeries

EX = SamplePlan("exhaustive")
M3 = matrix_algebra(3)
E = lambda i, j: RatMatrix.unit(3, i, j)
X_SYM = E(1, 2) + E(2, 1)


def _rb_map(alg, series):
    return LambdaSeries(alg, tuple(alg.rb(c) for c in series.coeffs))


def _tilde_map(alg, series):
    return LambdaSeries(alg, tuple(tilde_operator(alg, c) for c in series.coeffs))


class TestFixedPoints:
    def test_left_solution_satisfies_its_equation(self):
        order = 5
        f = solve_fixed_point(M3, X_SYM, "left-R", order)
        lam_x = LambdaSeries.term(M3, 1, X_SYM, order)
        assert f == LambdaSeries.one(M3, order) + _rb_map(M3, f * lam_x)

    def test_right_solution_satisfies_its_equation(self):
        order = 5
        h = solve_fixed_point(M3, X_SYM, "right-Rtilde", order)
        lam_x = LambdaSeries.term(M3, 1, X_SYM, order)
        assert h == LambdaSeries.one(M3, order) + _tilde_map(M3, lam_x * h)

    def test_unknown_side(self):
        with pytest.raises(ValueError):
            solve_fixed_point(M3, X_SYM, "middle", 3)

    def test_coefficients_independent_of_truncation(self):
        low = solve_fixed_point(M3, X_SYM, "left-R", 3)
        high = solve_fixed_point(M3, X_SYM, "left-R", 6)
        for k in range(4):
            assert low.coefficient(k) == high.coefficient(k)


class TestAtkinson:
    def test_factorization_across_models(self):
        cases = [
            (M3, X_SYM),
            (laurent_algebra(12, 12), LaurentElement({-1: 1, 0: 1}, 12, 12)),
            (integration_algebra(), integration_algebra().basis[1]),
            (
                commutative_standard_algebra(6),
                standard_generator(6),
            ),
        ]
        for alg, x in cases:
            res = check_atkinson(alg, x, 4, atkinson_lemma(alg, EX))
            assert res.status == "pass", res.counterexample

    def test_precomputed_lemma_outcome_is_reported(self):
        plan = SamplePlan("random", 5, 1)
        assert atkinson_lemma(M3, plan) is None
        assert check_atkinson(M3, X_SYM, 3, None).status == "pass"
        res = check_atkinson(M3, X_SYM, 3, "lemma a=0; b=0")
        assert (res.status, res.counterexample) == ("fail", "lemma a=0; b=0")
        # a splitting that is not a Rota-Baxter pair breaks the lemma
        doubled = replace(M3, rb=lambda m: 2 * M3.rb(m))
        assert atkinson_lemma(doubled, plan).startswith("model=matrix3; law=lemma; a=")


class TestSpitzerCommutative:
    def test_closed_form_across_weights(self):
        # weight 1, -1 and 0 carriers, same closed form
        cases = [
            (commutative_standard_algebra(8), standard_generator(8)),
            (summation_algebra(8), summation_algebra(8).basis[1]),
            (laurent_algebra(20, 20), LaurentElement({-1: 1, 0: 1}, 20, 20)),
            (integration_algebra(), integration_algebra().basis[1]),
        ]
        for alg, x in cases:
            res = spitzer_check_commutative(alg, x, 5)
            assert res.status == "pass", res.counterexample

    def test_needs_commutative_carrier(self):
        with pytest.raises(ConfigError):
            spitzer_check_commutative(M3, X_SYM, 3)


class TestMagnus:
    def test_low_grades_match_prelie_chains(self):
        p = lambda a, b: prelie_left(M3, a, b)
        x = X_SYM
        omega = prelie_magnus(M3, x, 4).omega
        xx = p(x, x)
        assert omega.coefficient(0) == M3.zero
        assert omega.coefficient(1) == x
        assert omega.coefficient(2) == Fraction(1, 2) * xx
        assert omega.coefficient(3) == Fraction(1, 4) * p(xx, x) + Fraction(1, 12) * p(x, xx)
        four = (
            Fraction(1, 8) * p(p(xx, x), x)
            + Fraction(1, 24) * p(p(x, xx), x)
            + Fraction(1, 24) * p(x, p(xx, x))
            + Fraction(1, 24) * p(xx, xx)
        )
        assert omega.coefficient(4) == four

    def test_grade_four_reduction(self):
        # in the reduced basis the two surviving chains carry 1/6 and 1/12
        alg = noncommutative_standard_algebra(6)
        x = standard_generator(6, "nc")
        p = lambda a, b: prelie_left(alg, a, b)
        xx = p(x, x)
        omega = prelie_magnus(alg, x, 4).omega
        reduced = Fraction(1, 6) * p(p(xx, x), x) + Fraction(1, 12) * p(x, p(xx, x))
        assert omega.coefficient(4) == reduced

    def test_grade_four_reduced_form_matches_the_commutative_closed_form(self):
        # no recursion here: in a commutative algebra x |> y = -theta xy, so
        # both chains equal -theta^3 x^4 and the reduced form must give the
        # grade-4 term -theta^3 x^4 / 4 of theta^-1 log(1 + theta x)
        alg = commutative_standard_algebra(6)
        x = standard_generator(6, "comm")
        p = lambda a, b: prelie_left(alg, a, b)
        xx = p(x, x)
        chains = (p(p(xx, x), x), p(x, p(xx, x)))
        closed = _log_closed_form(alg, x, 4).coefficient(4)
        reduced = lambda c1, c2: c1 * chains[0] + c2 * chains[1]
        assert closed != alg.zero
        assert reduced(Fraction(1, 6), Fraction(1, 12)) == closed
        assert reduced(-Fraction(1, 6), -Fraction(1, 12)) != closed

    def test_weight_zero_commutative_collapses_to_linear_term(self):
        alg = integration_algebra()
        t = alg.basis[1]
        omega = prelie_magnus(alg, t, 4).omega
        assert omega.coefficient(1) == t
        for k in (2, 3, 4):
            assert omega.coefficient(k) == alg.zero

    def test_coefficients_independent_of_truncation(self):
        low = prelie_magnus(M3, X_SYM, 3).omega
        high = prelie_magnus(M3, X_SYM, 5).omega
        for k in range(4):
            assert low.coefficient(k) == high.coefficient(k)


class TestNCSpitzer:
    def test_matrix(self):
        res = check_nc_spitzer(M3, X_SYM, 5)
        assert res.status == "pass", res.counterexample

    def test_standard_nc(self):
        alg = noncommutative_standard_algebra(5)
        x = alg.one + alg.basis[1]
        res = check_nc_spitzer(alg, x, 3)
        assert res.status == "pass", res.counterexample


def _summation_elements(n, seed=3):
    alg = summation_algebra(6)
    rng = random.Random(seed)
    return alg, tuple(alg.random_element(rng) for _ in range(n))


def _forms(checks):
    return [c.name.rsplit("/", 1)[1] for c in checks]


_REGISTRY = cli.default_models(cli.SuiteConfig())
_NC = _REGISTRY["standard-nc"]


class TestBohnenblustSpitzer:
    def test_two_operand_identity_by_hand(self):
        alg, (f1, f2) = _summation_elements(2)
        theta = alg.weight
        lhs = alg.rb(f1) * f2 + alg.rb(f2) * f1
        want = double_product(alg, f1, f2) - theta * (f1 * f2)
        assert alg.rb(lhs) == alg.rb(want)
        # and the packaged check agrees
        partitions, _ = check_bohnenblust_spitzer(alg, (f1, f2))
        assert partitions.name.endswith("/commutative-partitions")
        assert partitions.status == "pass"

    def test_two_operand_cycles_by_hand(self):
        alg = matrix_algebra(2)
        a, b = RatMatrix.unit(2, 1, 2), RatMatrix.unit(2, 2, 1)
        lhs = alg.rb(a) * b + alg.rb(b) * a
        rhs = double_product(alg, a, b) + prelie_left(alg, b, a)
        assert lhs == rhs
        [cycles] = check_bohnenblust_spitzer(alg, (a, b))
        assert cycles.name.endswith("/cycles-prelie") and cycles.status == "pass"

    def test_forms_agree_up_to_arity_four(self):
        alg, fs = _summation_elements(4)
        for n in (2, 3, 4):
            checks = check_bohnenblust_spitzer(alg, fs[:n])
            assert _forms(checks) == ["commutative-partitions", "cycles-prelie"]
            for res in checks:
                assert res.status == "pass", res.counterexample

    def test_weight_zero_form(self):
        alg = integration_algebra()
        rng = random.Random(5)
        for n in (2, 3):
            checks = check_bohnenblust_spitzer(alg, tuple(alg.random_element(rng) for _ in range(n)))
            assert _forms(checks) == ["weight-zero", "cycles-prelie"]
            for res in checks:
                assert res.status == "pass", res.counterexample

    def test_noncommutative_cycles(self):
        rng = random.Random(7)
        for n in (2, 3):
            [res] = check_bohnenblust_spitzer(M3, tuple(M3.random_element(rng) for _ in range(n)))
            assert res.status == "pass", res.counterexample

    @pytest.mark.parametrize(
        "alg, forms",
        [
            (_REGISTRY["standard-comm"], ["commutative-partitions", "cycles-prelie"]),
            (_NC, ["cycles-prelie"]),
            (_NC.rescaled(Fraction(2, 3) / _NC.weight), ["cycles-prelie"]),
            (_REGISTRY["matrix"], ["cycles-prelie"]),
            (_REGISTRY["integration"], ["weight-zero", "cycles-prelie"]),
        ],
        ids=["standard-comm", "standard-nc", "standard-nc at weight 2/3", "matrix3", "integration"],
    )
    def test_each_carrier_gets_the_forms_it_admits(self, alg, forms):
        checks = check_bohnenblust_spitzer(alg, (alg.one, alg.one))
        assert _forms(checks) == forms
        assert [c.name for c in checks] == [f"bohnenblust-spitzer/{alg.name}/n=2/{f}" for f in forms]

    def test_associative_chain_worked_example(self):
        alg, fs = _summation_elements(5)
        sigma = Permutation((2, 5, 4, 3, 1))
        # canonical cycles (4 3)(5 1 2): chains theta*F4F3 and theta^2*F5F1F2
        got = cycle_chain_product(alg, fs, sigma, "associative")
        f = lambda i: fs[i - 1]
        want = alg.weight ** 3 * double_product(alg, f(4) * f(3), f(5) * f(1) * f(2))
        assert got == want

    def test_preconditions(self):
        alg, fs = _summation_elements(2)
        with pytest.raises(ConfigError):
            check_bohnenblust_spitzer(alg, fs * 4)  # 8 operands
        with pytest.raises(ConfigError):
            check_bohnenblust_spitzer(alg, ())
        with pytest.raises(ValueError):
            cycle_chain_product(alg, fs, Permutation((1, 3, 2)), "prelie")
        with pytest.raises(ValueError):
            cycle_chain_product(alg, fs, Permutation((2, 1)), "smooth")


class TestBogoliubov:
    def _source(self, alg, seed=9, order=4):
        rng = random.Random(seed)
        coeffs = [alg.zero] + [alg.random_element(rng) for _ in range(order)]
        return LambdaSeries(alg, tuple(coeffs))

    def test_one_step_oracle(self):
        alg = laurent_algebra(8, 8)
        x1 = LaurentElement({-1: 1, 0: 1}, 8, 8)
        x = LambdaSeries(alg, (alg.zero, x1))
        f, hinv = bogoliubov_decompose(alg, x)
        assert f.coefficient(1) == LaurentElement({-1: 1}, 8, 8)
        assert hinv.coefficient(1) == LaurentElement({0: -1}, 8, 8)

    def test_split_parts_land_in_the_projector_images(self):
        alg = laurent_algebra(12, 12)
        x = self._source(alg)
        f, hinv = bogoliubov_decompose(alg, x)
        for n in range(1, x.order + 1):
            assert laurent_pole_projection(f.coefficient(n)) == f.coefficient(n)
            assert laurent_pole_projection(hinv.coefficient(n)) == alg.zero

    def test_check_passes_on_seeded_sources(self):
        alg = laurent_algebra(12, 12)
        for seed in range(5):
            res = check_bogoliubov(alg, self._source(alg, seed))
            assert res.status == "pass", res.counterexample

    def test_rejects_nonzero_constant_term(self):
        alg = laurent_algebra(8, 8)
        with pytest.raises(ValueError):
            bogoliubov_decompose(alg, LambdaSeries.one(alg, 3))


class TestBCH:
    def test_hand_formula_both_products(self):
        a, b = E(1, 2), E(2, 1)
        for product in ("carrier", "double"):
            if product == "carrier":
                mul = lambda u, v: u * v
            else:
                mul = lambda u, v: double_product(M3, u, v)
            br = lambda u, v: mul(u, v) - mul(v, u)
            lam = lambda v: LambdaSeries.term(M3, 1, v, 3)
            s = bch_of_series(lam(a), lam(b), mul)
            assert s.coefficient(1) == a + b
            assert s.coefficient(2) == Fraction(1, 2) * br(a, b)
            want3 = Fraction(1, 12) * (br(a, br(a, b)) + br(b, br(b, a)))
            assert s.coefficient(3) == want3


def _omega(y, order):
    return prelie_magnus(M3, y, order).omega


class TestFlows:
    def test_trivial_compositions(self):
        z = flows_product(M3, X_SYM, M3.zero, 3, _omega(M3.zero, 3))
        assert z == LambdaSeries.term(M3, 0, X_SYM, 3)
        z = flows_product(M3, M3.zero, X_SYM, 3, _omega(X_SYM, 3))
        assert z == LambdaSeries.term(M3, 0, X_SYM, 3)

    def test_grade_one_correction(self):
        # z = x + y - y |> x + higher order
        x, y = E(1, 2), E(2, 1)
        z = flows_product(M3, x, y, 3, _omega(y, 3))
        assert z.coefficient(0) == x + y
        assert z.coefficient(1) == -prelie_left(M3, y, x)

    def test_product_law(self):
        for x, y in ((E(1, 2), E(2, 1)), (X_SYM, E(1, 3) + E(3, 3))):
            res = check_flows_product_law(M3, x, y, 4)
            assert res.status == "pass", res.counterexample

    def test_bch_correspondence(self):
        x, y = E(1, 2), E(2, 1)
        res = check_flows_bch(M3, x, y, 3)
        assert res.status == "pass", res.counterexample
