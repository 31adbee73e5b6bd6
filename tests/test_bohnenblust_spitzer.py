"""Differential tests: Bohnenblust-Spitzer sums over subsets against S_n.

Both sides of Eq. (clBSpPerm) are regrouped into sums over subsets, which
uses only that R is linear and that the products are bilinear. The
permutation sums in ``reference_bs`` are the oracle: on every carrier the
bohnenblust-spitzer suite takes, with the operands it draws, both sides must
equal the reference elements for n = 1..6. So must they with
2 x triangular_projection on matrix3, which is not Rota-Baxter of the
matrix carrier's weight and makes the two sides differ.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

import reference_bs as ref
from rbx import cli, identities
from rbx.identities import BSOperands, check_bohnenblust_spitzer
from rbx.models import triangular_projection

REGISTRY = cli.default_models(cli.SuiteConfig())
_NC = REGISTRY["standard-nc"]

# case -> (model key whose operands are drawn, carrier, whether R is Rota-Baxter)
CASES = {
    "standard-comm": ("standard-comm", REGISTRY["standard-comm"], True),
    "standard-nc": ("standard-nc", _NC, True),
    "standard-nc at weight 2/3": ("standard-nc", _NC.rescaled(Fraction(2, 3) / _NC.weight), True),
    "matrix3": ("matrix", REGISTRY["matrix"], True),
    "integration": ("integration", REGISTRY["integration"], True),
    "matrix3 with 2P": (
        "matrix",
        dataclasses.replace(REGISTRY["matrix"], rb=lambda m: 2 * triangular_projection(m)),
        False,
    ),
}


def _operands(key, alg, n, seed=42):
    rng = random.Random(seed)
    return BSOperands(alg, tuple(cli._MODELS[key].operand(alg, rng) for _ in range(n)))


@pytest.mark.parametrize("case", CASES)
def test_subset_sums_match_the_permutation_sums(case):
    key, alg, rota_baxter = CASES[case]
    for n in range(1, 7):
        ops = _operands(key, alg, n)
        lhs, rhs = identities._nested_lhs(ops), identities._cycles_prelie_rhs(ops)
        assert lhs == ref._nested_lhs(ops), f"left side, n={n}"
        assert rhs == ref.cycles_prelie_rhs(ops), f"right side, n={n}"
        assert (lhs == rhs) is (rota_baxter or n < 3), f"identity, n={n}"


def _counted(fn):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    return counted, calls


def test_arity_six_takes_subset_work_not_permutation_work(monkeypatch):
    # left side: R(T(S)) once per proper nonempty S, 2^6 - 2 = 62, against
    # 720 * 5 = 3600 in the permutation sum. Right side: sum over top of
    # (top - 1) 2^(top - 2) = 129 pre-Lie calls and (3^5 - 1) / 2 = 121
    # double products, against sum over S_6 of (6 - cycles) = 2556 and
    # (cycles - 1) = 1044.
    key, alg, _ = CASES["matrix3"]
    rb, r_calls = _counted(alg.rb)
    ops = _operands(key, dataclasses.replace(alg, rb=rb), 6)
    identities._nested_lhs(ops)
    assert r_calls[0] == 62
    r_calls[0] = 0
    ref._nested_lhs(ops)
    assert r_calls[0] == 3600

    prelie, p_calls = _counted(identities.prelie_left)
    star, s_calls = _counted(identities.double_product)
    monkeypatch.setattr(identities, "prelie_left", prelie)
    monkeypatch.setattr(identities, "double_product", star)
    assert check_bohnenblust_spitzer(ops, "cycles-prelie").status == "pass"
    assert (p_calls[0], s_calls[0]) == (129, 121)
    p_calls[0] = s_calls[0] = 0
    ref.cycles_prelie_rhs(ops)
    assert (p_calls[0], s_calls[0]) == (2556, 1044)
