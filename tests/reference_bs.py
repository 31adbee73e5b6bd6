"""Reference Bohnenblust-Spitzer sums: both sides of Eq. (clBSpPerm) summed
one permutation at a time.

``_nested_lhs`` is the sum as it stood before the left side was regrouped
over subsets, and ``cycles_prelie_rhs`` is the right-hand side the
cycles-prelie check summed over S_n with ``cycle_chain_product``. Both take
the carrier and the operands as a tuple. They are the oracle for the differential tests in ``test_identities.py``: the subset
recursions must give the same elements. They are not part of the package.
"""

from __future__ import annotations

import itertools

from rbx.combinat import permutations
from rbx.identities import cycle_chain_product


def _nested_lhs(alg, fs: tuple) -> object:
    """sum over sigma of R(...R(R(F_s1)F_s2)...)F_sn, last factor outside."""
    total = alg.zero
    for sigma in itertools.permutations(range(len(fs))):
        acc = fs[sigma[0]]
        for i in sigma[1:]:
            acc = alg.rb(acc) * fs[i]
        total = total + acc
    return total


def cycles_prelie_rhs(alg, fs: tuple) -> object:
    """sum over sigma in S_n of cycle_chain_product(alg, fs, sigma, "prelie")."""
    rhs = alg.zero
    for sigma in permutations(len(fs)):
        rhs = rhs + cycle_chain_product(alg, fs, sigma, "prelie")
    return rhs
