"""Reference Bohnenblust-Spitzer sums: both sides of Eq. (clBSpPerm) summed
one permutation at a time, and the right sides through plain products.

``_nested_lhs`` is the sum as it stood before the left side was regrouped
over subsets, and ``cycles_prelie_rhs`` is the right-hand side the
cycles-prelie check summed over S_n with ``cycle_chain_product``. They are
the oracle for the differential tests in ``test_bohnenblust_spitzer.py``:
the subset recursions must give the same elements.

``cycles_prelie_subset_rhs`` is the subset recursion as it stood when every
pre-Lie and double product went through ``prelie_left`` and
``double_product``, and ``partitions_rhs`` folds every set partition on its
own, with no prefix shared. Regrouping over subsets uses linearity of R, so
under a nonlinear operator only these two still equal the package's sums;
``test_pair_forms.py`` compares them there.

Each takes the carrier and the operands as a tuple. None is part of the
package.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from rbx.algebra import double_product, prelie_left
from rbx.combinat import permutations, set_partitions
from rbx.identities import _members, cycle_chain_product


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


def cycles_prelie_subset_rhs(alg, fs: tuple) -> object:
    """The cycles-prelie right side summed over subsets, with prelie_left and
    double_product applying R on every call."""
    n = len(fs)
    chains = []
    for top in range(n):
        chain = [fs[top]]
        for t in range(1, 1 << top):
            chain.append(functools.reduce(
                operator.add, (prelie_left(alg, chain[t ^ 1 << j], fs[j]) for j in _members(t, n))))
        chains.append(chain)
    rhs = {}
    for s in (*range(1, 1 << (n - 1)), (1 << n) - 1):
        top = s.bit_length() - 1
        rest = s ^ 1 << top
        total = chains[top][rest]
        r = rest
        while r:
            total = total + double_product(alg, rhs[r], chains[top][rest ^ r])
            r = (r - 1) & rest
        rhs[s] = total
    return rhs[(1 << n) - 1]


def partitions_rhs(alg, fs: tuple) -> object:
    """sum over set partitions pi of (-theta)^(n - |pi|) times the left fold,
    in the double product, of (|B| - 1)! prod F_B over the blocks B of pi,
    each partition folded from its first block."""
    n = len(fs)
    star = lambda u, v: double_product(alg, u, v)
    rhs = alg.zero
    for part in set_partitions(n):
        values = []
        for block in part.blocks:
            prod = functools.reduce(operator.mul, (fs[j - 1] for j in block))
            values.append(math.factorial(len(block) - 1) * prod)
        rhs = rhs + (-alg.weight) ** (n - part.block_count) * functools.reduce(star, values)
    return rhs
