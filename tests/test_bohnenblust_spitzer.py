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
from rbx.identities import check_bohnenblust_spitzer
from rbx.models import RatMatrix, SeqElement, triangular_projection

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
    return tuple(cli._MODELS[key].operand(alg, rng) for _ in range(n))


@pytest.mark.parametrize("case", CASES)
def test_subset_sums_match_the_permutation_sums(case):
    key, alg, rota_baxter = CASES[case]
    for n in range(1, 7):
        ops = _operands(key, alg, n)
        lhs, rhs = identities._nested_lhs(alg, ops), identities._cycles_prelie_rhs(alg, ops)
        assert lhs == ref._nested_lhs(alg, ops), f"left side, n={n}"
        assert rhs == ref.cycles_prelie_rhs(alg, ops), f"right side, n={n}"
        assert (lhs == rhs) is (rota_baxter or n < 3), f"identity, n={n}"


def _counted(fn):
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    return counted, calls


def _counted_work(monkeypatch, key, carrier):
    """The case's carrier with a counting R, and a counting carrier `*` on the
    class of its elements: (carrier, R calls, product calls)."""
    _, alg, _ = CASES[key]
    rb, r_calls = _counted(alg.rb)
    mul, m_calls = _counted(carrier.__mul__)
    monkeypatch.setattr(carrier, "__mul__", mul)
    return dataclasses.replace(alg, rb=rb), r_calls, m_calls


def test_arity_six_takes_subset_work_not_permutation_work(monkeypatch):
    # left side: R(T(S)) once per proper nonempty S, 2^6 - 2 = 62, against
    # 720 * 5 = 3600 in the permutation sum. Right side: sum over top of
    # (top - 1) 2^(top - 2) = 129 pre-Lie products and (3^5 - 1) / 2 = 121
    # double products, two carrier products each: 500 (750 when each took
    # three). R: one pair per chain entry but the last of each chain,
    # sum over top of (2^top - 1) = 57, and one R per subset sum of
    # {1..5}, 2^5 - 1 = 31: 88 (371 when every call applied R again).
    # The permutation sum makes sum over S_6 of (6 - cycles) = 2556 pre-Lie
    # and (cycles - 1) = 1044 double products.
    alg, r_calls, m_calls = _counted_work(monkeypatch, "matrix3", RatMatrix)
    ops = _operands("matrix", alg, 6)
    identities._nested_lhs(alg, ops)
    assert r_calls[0] == 62
    r_calls[0] = 0
    ref._nested_lhs(alg, ops)
    assert r_calls[0] == 3600

    r_calls[0] = m_calls[0] = 0
    identities._cycles_prelie_rhs(alg, ops)
    assert (r_calls[0], m_calls[0]) == (88, 500)
    [check] = check_bohnenblust_spitzer(alg, ops)
    assert check.name.endswith("/cycles-prelie") and check.status == "pass"

    prelie, p_calls = _counted(identities.prelie_left)
    star, s_calls = _counted(identities.double_product)
    monkeypatch.setattr(identities, "prelie_left", prelie)
    monkeypatch.setattr(identities, "double_product", star)
    ref.cycles_prelie_rhs(alg, ops)
    assert (p_calls[0], s_calls[0]) == (2556, 1044)


def test_partitions_right_side_forms_each_block_once(monkeypatch):
    # each of the 2^6 - 1 = 63 blocks gets its value, sum over blocks of
    # (|B| - 1) = 6 * 2^5 - 63 = 129 products, and one R, once (and Rtilde
    # if it does not hold 1). The 373 folds take two products each, 746, and
    # the 171 that a later block extends, not counting first blocks, take
    # one R each: 234 R and 875 products (746 and 1437 with the values
    # formed per partition and R applied on every double product).
    alg, r_calls, m_calls = _counted_work(monkeypatch, "standard-comm", SeqElement)
    ops = _operands("standard-comm", alg, 6)
    r_calls[0] = m_calls[0] = 0
    identities._partitions_rhs(alg, ops)
    assert (r_calls[0], m_calls[0]) == (234, 875)


def test_one_left_side_serves_every_form():
    # on a commutative carrier of nonzero weight the commutative-partitions
    # and cycles-prelie laws read one left side: serially, the check applies R
    # exactly as often as its three builders do, each run alone. The left
    # side applies R to each proper nonempty subset, 2^n - 2 times
    builders = (identities._nested_lhs, identities._partitions_rhs, identities._cycles_prelie_rhs)
    for key in ("standard-comm", "summation", "laurent"):
        rb, r_calls = _counted(REGISTRY[key].rb)
        alg = dataclasses.replace(REGISTRY[key], rb=rb)
        for n in range(2, 6):
            ops = _operands(key, alg, n)
            alone = []
            for build in builders:
                r_calls[0] = 0
                build(alg, ops)
                alone.append(r_calls[0])
            r_calls[0] = 0
            checks = check_bohnenblust_spitzer(alg, ops)
            forms = [c.name.rsplit("/", 1)[1] for c in checks]
            assert forms == ["commutative-partitions", "cycles-prelie"], (key, n)
            assert all(c.status == "pass" for c in checks), (key, n)
            assert alone[0] == 2**n - 2 and r_calls[0] == sum(alone), (key, n)
