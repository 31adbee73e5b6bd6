"""Differential tests: the (R, Rtilde) pair forms against plain products,
under a nonlinear operator.

The Bohnenblust-Spitzer right sides, the Magnus towers and the flows
composition apply R once per operand they read again and form
a |> b = R(a)b + bRtilde(a) and x * y = R(x)y - xRtilde(y). That rewrite
may use only bilinearity of the carrier product, never linearity of R. So
under R(x) = x*x + x, the operator of ``test_law_values.py``, each must give
the elements of its plain ``prelie_left`` / ``double_product`` form in
``reference_bs`` and ``reference_series``: at weight -1 (matrix3), at a
weight other than +-1 (standard-nc at 2/3), at weight 1 (standard-comm) and
at weight 0 (integration).
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import reference_bs as ref_bs
import reference_series as ref_series
from rbx import cli, identities
from rbx.models import integration_algebra
from rbx.series import LambdaSeries

REGISTRY = cli.default_models(cli.SuiteConfig())


def _nonlinear(key, alg, weight=None):
    weight = alg.weight if weight is None else Fraction(weight)
    return key, replace(alg, rb=lambda x: x * x + x, weight=weight)


# case -> (model key whose operands are drawn, carrier with the nonlinear R);
# R doubles degrees, so the integration carrier gets room up to degree 200
CASES = {
    "matrix3": _nonlinear("matrix", REGISTRY["matrix"]),
    "standard-nc at weight 2/3": _nonlinear("standard-nc", REGISTRY["standard-nc"], Fraction(2, 3)),
    "standard-comm": _nonlinear("standard-comm", REGISTRY["standard-comm"]),
    "integration": _nonlinear("integration", integration_algebra(200)),
}


def _operands(key, alg, n, seed=42):
    rng = random.Random(seed)
    return tuple(cli._MODELS[key].operand(alg, rng) for _ in range(n))


@pytest.mark.parametrize("case", CASES)
def test_bohnenblust_spitzer_right_sides_match_the_plain_products(case):
    key, alg = CASES[case]
    for n in range(2, 7):
        ops = _operands(key, alg, n)
        cycles = identities._cycles_prelie_rhs(alg, ops)
        assert cycles == ref_bs.cycles_prelie_subset_rhs(alg, ops), n
        assert identities._partitions_rhs(alg, ops) == ref_bs.partitions_rhs(alg, ops), n


@pytest.mark.parametrize("case", CASES)
def test_magnus_and_flows_match_the_plain_products(case):
    key, alg = CASES[case]
    x, y = _operands(key, alg, 2, seed=5)
    # a source with every grade nonzero
    z = LambdaSeries(alg, tuple((x, y)[k % 2] for k in range(9)))
    for order in range(1, 9):
        omega = identities.prelie_magnus_of_series(alg, z, order)
        assert omega == ref_series.prelie_magnus_of_series(alg, z, order), order
        omega_y = identities.prelie_magnus(alg, y, order).omega
        got = identities.flows_product(alg, x, y, order, omega_y)
        assert got == ref_series.flows_product(alg, x, y, order), order
