"""Fixed points, Magnus/Spitzer identities, Bohnenblust-Spitzer, Atkinson,
Bogoliubov, and the flows/BCH correspondence.

Everything works over truncated series in the grading parameter with exact
carrier coefficients, so each check is an exact coefficientwise comparison.

Conventions fixed here once:

* a "source" series z feeds equations as l = 1 + lambda R(l z); a plain
  element x is the constant source series. Bogoliubov instead consumes a
  series with zero constant term and no extra lambda shift, matching the
  degree-by-degree renormalization recursion f_n = R((f x)_n): its f is the
  left fixed point of the source x / lambda.
* the Magnus recursion is Omega = lambda z + sum_n ((-1)^n B_n / n!)
  ell^n_{Omega |>}(lambda z). The commutative closed form
  theta^{-1} log(1 + theta F) pins the sign convention; the recursion
  reproduces it exactly (checked coefficientwise by spitzer checks). The
  towers ell^n fill in grade by grade, each entry at most once: tower n
  vanishes below grade n + 1, grade k reads Omega only below k, and a
  top-grade entry of weight 0 is never formed, since no tower reads it.
* a carrier product with a factor that is the carrier's ``zero`` object,
  the padding of constant sources and of ``LambdaSeries.term``, is skipped
  where the product is the carrier ``*``: it is 0 by bilinearity of ``*``,
  whatever R is. The double product and |> are not bilinear for a
  nonlinear R (x * 0 = xR(0)), so ``series_mul`` forms all their terms.
* the flows composition is implemented so that the solution map is a
  homomorphism: solve(x # y) = solve(x) solve(y). With left fixed points
  f = 1 + lambda R(fx) this forces x # y = y + exp(-ell_{Omega'(y) |>})(x);
  the variant with x and y swapped composes the factors in the opposite
  order (verified by expanding grade 2: the correction must be -y |> x).
* BCH in either product is log(1 + A + B + A B) with A = exp(a) - 1 and
  B = exp(b) - 1. The double product has no unit: the grade-0 one of these
  series is a formal marker that no product reads.
* Bohnenblust-Spitzer checks each closed form the carrier admits against one
  left side. The partitions form carries (-theta)^{n - |pi|}: the n = 2 case
  F1 * F2 - theta F2 F1 = R(F1)F2 + R(F2)F1 forces the sign.
* the recursions that read an operand again take its pair (R(v), Rtilde(v))
  once, with Rtilde(v) = -theta v - R(v), and form a |> b = R(a)b + bRtilde(a)
  and x * y = R(x)y - xRtilde(y) in two carrier products each. Both forms use
  only bilinearity of the carrier product, never linearity of R, so they
  give the values of prelie_left and double_product under any operator.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    RBAlgebra,
    SamplePlan,
    _prelie,
    _r_pair,
    double_product,
    first_failure,
    prelie_left,
    tilde_operator,
)
# rbxbench/tracer.py times `permutations` by its name here, so it stays bound
from .combinat import Permutation, canonical_cycles, permutations, set_partitions
from .errors import ConfigError
from .report import CheckResult
from .scalars import bernoulli
from .series import LambdaSeries, series_exp, series_inverse, series_log, series_mul

SIDE_LEFT = "left-R"
SIDE_RIGHT = "right-Rtilde"


def _constant_source(alg: RBAlgebra, x, order: int) -> LambdaSeries:
    return LambdaSeries.term(alg, 0, x, order)


def _grades(law: str, a: LambdaSeries, b: LambdaSeries):
    """The law grade by grade, over the grades both series carry."""
    for k in range(min(a.order, b.order) + 1):
        yield f"{law} grade {k}", a.coefficient(k), b.coefficient(k)


# ---------------------------------------------------------------------------
# fixed points


def solve_fixed_point_series(
    alg: RBAlgebra, z: LambdaSeries, side: str = SIDE_LEFT
) -> LambdaSeries:
    """Solve l = 1 + lambda R(l z) (left-R) or h = 1 + lambda Rtilde(z h), to z's order.

    A grade of z that is the carrier's ``zero`` object, the padding of a
    constant source, adds no carrier product: the product is 0 by
    bilinearity of ``*``, whatever R is.
    """
    if side not in (SIDE_LEFT, SIDE_RIGHT):
        raise ValueError(f"unknown side {side!r}")
    coeffs = [alg.one]
    for n in range(1, z.order + 1):
        w = alg.zero
        for i in range(n):  # grade of the solution factor
            zj = z.coefficient(n - 1 - i)
            if zj is not alg.zero:
                w = w + (coeffs[i] * zj if side == SIDE_LEFT else zj * coeffs[i])
        coeffs.append(alg.rb(w) if side == SIDE_LEFT else tilde_operator(alg, w))
    return LambdaSeries(alg, tuple(coeffs))


def solve_fixed_point(alg: RBAlgebra, x, side: str = SIDE_LEFT, order: int = 6) -> LambdaSeries:
    return solve_fixed_point_series(alg, _constant_source(alg, x, order), side)


def check_atkinson(alg: RBAlgebra, sources, order: int, plan: SamplePlan) -> list:
    """Factorization fh = 1 - lambda theta fxh and its inverse form for each
    source x, one check per source, and the splitting lemma
    R(a)Rtilde(b) = R(a Rtilde(b)) + Rtilde(R(a) b) on plan's pairs. The lemma
    does not involve x: it runs once, before the sources, and a source whose
    factorization holds carries the lemma's verdict."""
    theta = alg.weight
    one_s = LambdaSeries.one(alg, order)

    def lemma(a, b):
        tb = tilde_operator(alg, b)
        ra = alg.rb(a)
        yield "lemma", ra * tb, alg.rb(a * tb) + tilde_operator(alg, ra * b)

    def laws(x):
        f = solve_fixed_point(alg, x, SIDE_LEFT, order)
        h = solve_fixed_point(alg, x, SIDE_RIGHT, order)
        lam_x = LambdaSeries.term(alg, 1, x, order)
        yield from _grades("fh=1-th*fxh", f * h, one_s - theta * (f * lam_x * h))
        lhs = series_inverse(f) * series_inverse(h)
        yield from _grades("f^-1h^-1=1+th*x", lhs, one_s + theta * lam_x)

    lemma_bad = first_failure(alg.name, plan.pairs(alg), lemma, "ab")
    checks = []
    for i, x in enumerate(sources):
        bad = first_failure(alg.name, [(x,)], laws, "x") or lemma_bad
        checks.append(CheckResult.of(f"atkinson/{alg.name}/N={order}/x{i}", "Eq. (Atkins)", bad))
    return checks


# ---------------------------------------------------------------------------
# Bogoliubov recursion (idempotent projector splitting)


def bogoliubov_decompose(alg: RBAlgebra, x: LambdaSeries):
    """Solve f = 1 + R(fx) and h^-1 = 1 - Rtilde(fx) degree by degree.

    x must have zero constant term; the grading lives inside x itself, so f
    is the left fixed point of the source x / lambda. Since -Rtilde(w) =
    R(w) + theta w, h^-1 = f + theta fx.
    """
    if not x.coefficient(0) == alg.zero:
        raise ValueError("source series must have zero constant term")
    f = solve_fixed_point_series(alg, LambdaSeries(alg, x.coeffs[1:] + (alg.zero,)))
    return f, f + alg.weight * series_mul(f, x, 0, 1)


def check_bogoliubov(alg: RBAlgebra, x: LambdaSeries) -> CheckResult:
    """Counterterm purely in the image of R and renormalized part killed by R.

    The factorization f (1 + theta x) h = 1 is not a law here: h^-1 = f +
    theta fx by construction, so it holds for any map R.
    """

    def laws(x):
        f, hinv = bogoliubov_decompose(alg, x)
        for n in range(1, x.order + 1):
            fn, hn = f.coefficient(n), hinv.coefficient(n)
            yield f"R(h^-1)=0 grade {n}", alg.rb(hn), alg.zero
            yield f"Rtilde(f)=0 grade {n}", tilde_operator(alg, fn), alg.zero

    bad = first_failure(alg.name, [(x,)], laws, "x")
    return CheckResult.of(f"bogoliubov/{alg.name}/N={x.order}", "Eq. (Atkins)", bad)


# ---------------------------------------------------------------------------
# Magnus expansion and Spitzer identities


@dataclass(frozen=True)
class MagnusExpansion:
    omega: LambdaSeries


def _prelie_grade(alg: RBAlgebra, pairs, t, g: int, low: int):
    """Grade g of w |> t from coefficient sequences, where pairs[i] is the
    pair (R(w_i), Rtilde(w_i)) for i >= 1 and t vanishes below grade low:
    only i = 1 .. g - low contribute. A t grade that is the carrier's ``zero``
    object adds nothing: w_i |> 0 = R(w_i)0 + 0Rtilde(w_i) is 0 by
    bilinearity of ``*``, whatever R is."""
    acc = alg.zero
    for i in range(1, g - low + 1):
        if t[g - i] is not alg.zero:
            acc = acc + _prelie(pairs[i], t[g - i])
    return acc


def prelie_magnus_of_series(alg: RBAlgebra, z: LambdaSeries, order: int) -> LambdaSeries:
    """Omega = lambda z + sum_{n>0} ((-1)^n B_n / n!) ell^n_{Omega |>}(lambda z).

    The towers tower[n] = ell^n_{Omega |>}(lambda z) fill in grade by grade:
    tower[n][k] = sum_{i=1..k-n} omega_i |> tower[n-1][k-i], since tower n
    vanishes below grade n + 1. Grade k of every tower reads Omega only below
    grade k, so the recursion is well founded, each tower entry is computed
    at most once, and each coefficient is independent of the truncation
    order. Each omega_k below the top grade gets its pair (R, Rtilde) once.

    No tower reads a top-grade entry, so tower n skips it when its weight
    is 0 (odd n >= 3). A grade of lambda z that is the carrier's ``zero``
    object, the padding of a constant source, adds no term to tower 1
    (see ``_prelie_grade``).
    """
    lam_z = [alg.zero] + [z.coefficient(k) for k in range(order)]
    weights = [Fraction((-1) ** n) * bernoulli(n) / math.factorial(n) for n in range(order)]
    omega, pairs = [alg.zero], [None]
    towers = [lam_z] + [[alg.zero] * (order + 1) for _ in range(1, order)]
    for k in range(1, order + 1):
        acc = lam_z[k]
        for n in range(1, k):
            if k == order and not weights[n]:
                continue
            entry = towers[n][k] = _prelie_grade(alg, pairs, towers[n - 1], k, n)
            if weights[n]:
                acc = acc + weights[n] * entry
        omega.append(acc)
        if k < order:
            pairs.append(_r_pair(alg, acc))
    return LambdaSeries(alg, tuple(omega))


def prelie_magnus(alg: RBAlgebra, x, order: int) -> MagnusExpansion:
    omega = prelie_magnus_of_series(alg, _constant_source(alg, x, order), order)
    return MagnusExpansion(omega)


def _log_closed_form(alg: RBAlgebra, x, order: int) -> LambdaSeries:
    """theta^{-1} log(1 + theta lambda x) as a series of carrier elements.

    Coefficient n is (-1)^(n-1) theta^(n-1) x^n / n; at theta = 0 only the
    linear term survives, which is the correct algebraic limit. x^n is
    x^(n-1) x, one carrier product per grade.
    """
    coeffs, power = [alg.zero], x
    for n in range(1, order + 1):
        c = Fraction((-1) ** (n - 1), n) * alg.weight ** (n - 1)
        if n > 1 and c:  # at weight 0, c vanishes for every n > 1
            power = power * x
        coeffs.append(c * power if c else alg.zero)
    return LambdaSeries(alg, tuple(coeffs))


def spitzer_check_commutative(alg: RBAlgebra, x, order: int) -> CheckResult:
    """log of the fixed point equals R(theta^{-1} log(1 + theta lambda x)),
    and the Magnus series collapses to the same closed form."""
    if not alg.commutative:
        raise ConfigError(f"spitzer closed form needs a commutative carrier, not {alg.name}")

    def laws(x):
        closed = _log_closed_form(alg, x, order)
        lhs = series_log(solve_fixed_point(alg, x, SIDE_LEFT, order))
        rhs = LambdaSeries(alg, tuple(alg.rb(c) for c in closed.coeffs))
        yield from _grades("log f=R(closed form)", lhs, rhs)
        yield from _grades("omega=closed form", prelie_magnus(alg, x, order).omega, closed)

    bad = first_failure(alg.name, [(x,)], laws, "x")
    return CheckResult.of(f"spitzer/{alg.name}/N={order}", "Eq. (SpitzId)", bad)


def check_nc_spitzer(alg: RBAlgebra, x, order: int) -> CheckResult:
    """R applied to the Magnus series is the log of the left fixed point."""

    def laws(x):
        omega = prelie_magnus(alg, x, order).omega
        lhs = LambdaSeries(alg, tuple(alg.rb(c) for c in omega.coeffs))
        rhs = series_log(solve_fixed_point(alg, x, SIDE_LEFT, order))
        yield from _grades("R(omega)=log f", lhs, rhs)

    bad = first_failure(alg.name, [(x,)], laws, "x")
    return CheckResult.of(f"nc-spitzer/{alg.name}/N={order}", "Eq. (pLMag)", bad)


# ---------------------------------------------------------------------------
# Bohnenblust-Spitzer


def _members(s: int, n: int) -> list:
    """The 0-based indices in the bitmask s."""
    return [i for i in range(n) if s >> i & 1]


def _nested_lhs(alg: RBAlgebra, fs: tuple) -> object:
    """sum over sigma of R(...R(R(F_s1)F_s2)...)F_sn, last factor outside.

    R is linear, so the permutations group by their last factor: with
    T({i}) = F_i and T(S) = sum over i in S of R(T(S - i)) F_i, the sum is
    T({1..n}), in n 2^(n-1) steps instead of n!(n-1). Subsets are bitmasks
    taken in increasing order, so S - i comes before S, and R(T(S)) is formed
    once for each proper subset S.
    """
    n = len(fs)
    full = (1 << n) - 1
    r_of = {}
    for s in range(1, full + 1):
        members = _members(s, n)
        if len(members) == 1:
            t = fs[members[0]]
        else:
            t = functools.reduce(operator.add, (r_of[s ^ 1 << i] * fs[i] for i in members))
        if s == full:
            return t
        r_of[s] = alg.rb(t)


def _cycles_prelie_rhs(alg: RBAlgebra, fs: tuple) -> object:
    """sum over sigma of cycle_chain_product(alg, fs, sigma, "prelie").

    The products are bilinear, so the sum regroups over subsets. Canonical
    cycles fold in increasing order of their maxima, so the cycle through
    max(S) comes last: RHS(S) = sum over blocks B containing max(S) of
    RHS(S - B) * C(B) in the double product, with C(S) alone for B = S. C(B)
    sums the chains seeded at F_max(B) over every order of the rest of B:
    chain_top[T] = sum over j in T of chain_top[T - j] |> F_j, linear in
    its first argument. The recursion reaches only {1..n} and the subsets of
    {1..n-1}.

    Every S with max(S) = top reads only chain_top, so each chain is built
    just before those S and dropped after them. Every chain entry but the
    last is read again, so it gets its pair (R, Rtilde) once, and every
    RHS(S) below {1..n} gets R(RHS(S)) once.
    """
    n = len(fs)
    rhs, r_rhs = {}, {}
    for top in range(n):
        chain, pairs = [fs[top]], []
        for t in range(1, 1 << top):
            pairs.append(_r_pair(alg, chain[-1]))
            chain.append(functools.reduce(
                operator.add, (_prelie(pairs[t ^ 1 << j], fs[j]) for j in _members(t, n))))
        # rest = S - {top}: every set below top, but only {1..n} at the last top
        for rest in range(1 << top) if top < n - 1 else ((1 << top) - 1,):
            total = chain[rest]
            r = rest
            while r:  # every nonempty r = S - B, a submask of rest
                # RHS(r) * C(B) = R(RHS(r)) C(B) - RHS(r) Rtilde(C(B))
                total = total + r_rhs[r] * chain[rest ^ r] - rhs[r] * pairs[rest ^ r][1]
                r = (r - 1) & rest
            if top == n - 1:
                return total
            s = rest | 1 << top
            rhs[s], r_rhs[s] = total, alg.rb(total)


def _partitions_rhs(alg: RBAlgebra, fs: tuple) -> object:
    """sum over set partitions pi of (-theta)^(n - |pi|) times the left fold,
    in the double product, of (|B| - 1)! prod F_B over the blocks B of pi.

    In sorted order, partitions that share their first blocks are adjacent,
    so only the fold path of the previous one is kept: the (block, fold up
    to it, R of that fold) triples, and each prefix is folded once. So each
    first block, the one holding 1, gets its value and R once on the path;
    every other block gets its value and Rtilde once, in a table. A fold that
    covers {1..n} ends its partition and nothing extends it, so it gets no R.
    """
    n = len(fs)

    def value_of(block):
        prod = functools.reduce(operator.mul, (fs[j - 1] for j in block))
        return math.factorial(len(block) - 1) * prod

    rhs = alg.zero
    path = []
    later = {}  # block without 1 -> (value, Rtilde(value))
    for part in sorted(set_partitions(n), key=lambda p: p.blocks):
        blocks = part.blocks
        keep = 0
        while keep < len(path) and keep < len(blocks) and path[keep][0] == blocks[keep]:
            keep += 1
        del path[keep:]
        for i, block in enumerate(blocks[keep:], keep):
            if not path:
                value = value_of(block)
                path.append((block, value, alg.rb(value)))
                continue
            if block not in later:
                value = value_of(block)
                later[block] = value, tilde_operator(alg, value)
            value, t_value = later[block]
            _, fold, r_fold = path[-1]
            # fold * value = R(fold) value - fold Rtilde(value)
            fold = r_fold * value - fold * t_value
            path.append((block, fold, alg.rb(fold) if i < len(blocks) - 1 else None))
        rhs = rhs + (-alg.weight) ** (n - part.block_count) * path[-1][1]
    return rhs


def cycle_chain_product(alg: RBAlgebra, fs: tuple, sigma: Permutation, variant: str):
    """One permutation's contribution to the closed-form right-hand side.

    This is the one-permutation form: the cycles-prelie check sums the same
    chains over subsets instead (`_cycles_prelie_rhs`), and the tests sum this
    over S_n as its reference.

    Each canonical cycle (a_0 a_1 ... a_m) becomes a chain seeded at F_{a_0}
    with right factors applied innermost-first: the associative variant
    multiplies by theta F_{a_i}, the prelie variant applies y -> y |> F_{a_i}.
    Cycle values are folded with the double product in canonical order.
    """
    if sigma.size != len(fs):
        raise ValueError(f"permutation degree {sigma.size} != operand count {len(fs)}")
    values = []
    for cycle in canonical_cycles(sigma).cycles:
        acc = fs[cycle[0] - 1]
        for a in cycle[1:]:
            if variant == "associative":
                acc = alg.weight * (acc * fs[a - 1])
            elif variant == "prelie":
                acc = prelie_left(alg, acc, fs[a - 1])
            else:
                raise ValueError(f"unknown variant {variant!r}")
        values.append(acc)
    return functools.reduce(lambda u, v: double_product(alg, u, v), values)


def check_bohnenblust_spitzer(alg: RBAlgebra, operands: tuple) -> list:
    """Both sides of the Bohnenblust-Spitzer identity for F_1 .. F_n, 1 <= n <= 6:
    one CheckResult per closed form the carrier admits, in report order.

    A commutative carrier gets commutative-partitions, or weight-zero (the
    n-fold double product) at weight 0, both Eq. (clBSp); every carrier gets
    cycles-prelie, Eq. (clBSpPerm). Each form's law builds both of its sides,
    so in a split run only the process that evaluates the form builds them;
    a process builds the left side at most once for all forms.
    """
    n = len(operands)
    if not 1 <= n <= 6:
        raise ConfigError(f"operand count {n} outside 1..6")
    forms = []
    if alg.commutative and alg.weight != 0:
        forms.append(("commutative-partitions", "Eq. (clBSp)", _partitions_rhs))
    elif alg.commutative:
        star = lambda u, v: double_product(alg, u, v)
        forms.append(("weight-zero", "Eq. (clBSp)", lambda alg, fs: functools.reduce(star, fs)))
    forms.append(("cycles-prelie", "Eq. (clBSpPerm)", _cycles_prelie_rhs))
    lhs = functools.cache(lambda: _nested_lhs(alg, operands))
    names = [f"F{i}" for i in range(1, n + 1)]
    checks = []
    for form, anchor, rhs in forms:
        laws = lambda *fs, form=form, rhs=rhs: [(form, lhs(), rhs(alg, fs))]
        bad = first_failure(alg.name, [operands], laws, names)
        checks.append(CheckResult.of(f"bohnenblust-spitzer/{alg.name}/n={n}/{form}", anchor, bad))
    return checks


# ---------------------------------------------------------------------------
# BCH in the carrier and double products


def bch_of_series(a: LambdaSeries, b: LambdaSeries, mul=operator.mul) -> LambdaSeries:
    """log(exp(a) exp(b)) for series with zero constant coefficient, as
    log(1 + A + B + A B) with A = exp(a) - 1 and B = exp(b) - 1, products
    taken with the bilinear map mul."""
    one = LambdaSeries.one(a.carrier, a.order)
    big_a, big_b = series_exp(a, mul) - one, series_exp(b, mul) - one
    return series_log(one + big_a + big_b + series_mul(big_a, big_b, 1, 1, mul), mul)


# ---------------------------------------------------------------------------
# the flows composition


def flows_product(alg: RBAlgebra, x, y, order: int, omega_y: LambdaSeries) -> LambdaSeries:
    """The source z = x # y with solve(z) = solve(x) solve(y).

    z = y + exp(-ell_{Omega'(y) |>})(x), returned as a source series whose
    grade-0 coefficient is x + y. omega_y is Omega'(y) at any order >= order.
    Term k of the exponential vanishes below grade k.
    """
    if omega_y.order < order:
        raise ValueError(f"Omega'(y) has order {omega_y.order}, below {order}")
    pairs = [None] + [_r_pair(alg, c) for c in omega_y.coeffs[1 : order + 1]]
    term = [x] + [alg.zero] * order
    acc = _constant_source(alg, x, order)
    for k in range(1, order + 1):
        # term k = Omega'(y) |> term k-1, with each Omega'(y) pair formed once
        grades = (_prelie_grade(alg, pairs, term, g, k - 1) for g in range(k, order + 1))
        term = [alg.zero] * k + list(grades)
        acc = acc + Fraction((-1) ** k, math.factorial(k)) * LambdaSeries(alg, term)
    return acc + _constant_source(alg, y, order)


def check_flows_product_law(alg: RBAlgebra, x, y, order: int) -> CheckResult:
    """solve(x # y) = solve(x) solve(y) coefficientwise."""

    def laws(x, y):
        z = flows_product(alg, x, y, order, prelie_magnus(alg, y, order).omega)
        lhs = solve_fixed_point_series(alg, z)
        fx = solve_fixed_point(alg, x, SIDE_LEFT, order)
        yield from _grades("solve(x#y)=fh", lhs, fx * solve_fixed_point(alg, y, SIDE_LEFT, order))

    bad = first_failure(alg.name, [(x, y)], laws, "xy")
    return CheckResult.of(f"flows-product/{alg.name}/N={order}", "Eq. (pLMag)", bad)


def check_flows_bch(alg: RBAlgebra, x, y, order: int) -> CheckResult:
    """Omega'(x # y) = BCH of Omega'(x), Omega'(y) in the double product.

    Both flows checks build their Magnus series inside the law, so in a
    split run only the process that evaluates the pair builds them.
    """
    star = lambda u, v: double_product(alg, u, v)

    def laws(x, y):
        omega_y = prelie_magnus(alg, y, order).omega
        z = flows_product(alg, x, y, order, omega_y)
        lhs = prelie_magnus_of_series(alg, z, order)
        rhs = bch_of_series(prelie_magnus(alg, x, order).omega, omega_y, star)
        yield from _grades("omega(x#y)=bch", lhs, rhs)

    bad = first_failure(alg.name, [(x, y)], laws, "xy")
    return CheckResult.of(f"flows-bch/{alg.name}/N={order}", "Eq. (pLMag)", bad)
