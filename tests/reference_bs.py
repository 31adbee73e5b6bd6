"""Reference Bohnenblust-Spitzer sums: both sides of Eq. (clBSpPerm) summed
one permutation at a time.

``_nested_lhs`` is kept verbatim as it stood before the left side was
regrouped over subsets, and ``cycles_prelie_rhs`` is the right-hand side the
cycles-prelie check summed over S_n with ``cycle_chain_product``. They are the
oracle for the differential tests in ``test_identities.py``: the subset
recursions must give the same elements. They are not part of the package.
"""

from __future__ import annotations

import itertools

from rbx.combinat import permutations
from rbx.identities import BSOperands, cycle_chain_product


def _nested_lhs(ops: BSOperands) -> object:
    """sum over sigma of R(...R(R(F_s1)F_s2)...)F_sn, last factor outside."""
    alg = ops.alg
    total = alg.zero
    for sigma in itertools.permutations(range(1, ops.n + 1)):
        acc = ops.at(sigma[0])
        for i in sigma[1:]:
            acc = alg.rb(acc) * ops.at(i)
        total = total + acc
    return total


def cycles_prelie_rhs(ops: BSOperands) -> object:
    """sum over sigma in S_n of cycle_chain_product(ops, sigma, "prelie")."""
    rhs = ops.alg.zero
    for sigma in permutations(ops.n):
        rhs = rhs + cycle_chain_product(ops, sigma, "prelie")
    return rhs
