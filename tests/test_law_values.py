"""Law bodies against their plain formulas, under a nonlinear operator.

The checks share R values, products and brackets between their laws. That
sharing may use only the carrier algebra (the bilinear product, the
antisymmetric commutator, R of equal values), never linearity of R. So under
R(x) = x*x + x, which is neither additive nor odd, every law must still
evaluate to the values of the plain formulas written out below. `first_failure` is replaced by a recorder that evaluates
every law on every sample, so a law behind an earlier failing one is compared
too. The same recorder shows that every stated law fails under some broken
operator, so none of them holds for every map R.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

from rbx import algebra, identities, yangbaxter
from rbx.algebra import SamplePlan
from rbx.errors import ConfigError
from rbx.models import (
    integration_algebra,
    laurent_algebra,
    matrix_algebra,
    noncommutative_standard_algebra,
)
from rbx.series import LambdaSeries

PLAN = SamplePlan("random", 3, 5)
HALF = Fraction(1, 2)


def _nonlinear(alg, weight=None):
    weight = alg.weight if weight is None else Fraction(weight)
    return replace(alg, rb=lambda x: x * x + x, weight=weight)


MATRIX = _nonlinear(matrix_algebra(3))  # weight -1, noncommutative
MATRIX0 = _nonlinear(matrix_algebra(3), 0)  # weight 0, noncommutative
INTEGRATION = _nonlinear(integration_algebra(200))  # weight 0, commutative
STANDARD = _nonlinear(noncommutative_standard_algebra(4))  # weight 1, word polynomials


def _recorded(monkeypatch, check, *args) -> list:
    """Every (law, lhs, rhs) the check yields, over every sample, in order."""
    seen = []

    def record(model, samples, laws, names):
        for sample in samples:
            seen.extend(laws(*sample))

    for module in (algebra, identities, yangbaxter):
        monkeypatch.setattr(module, "first_failure", record)
    check(*args)
    return seen


def _plain(alg, *stages) -> list:
    """The plain laws: (sample kind, law generator) stages in check order."""
    out = []
    for kind, laws in stages:
        for sample in getattr(PLAN, kind)(alg):
            out.extend(laws(*sample))
    return out


def _ops(alg):
    """The plain R, double product, pre-Lie product, tilde and commutator."""
    R, th = alg.rb, alg.weight
    star = lambda u, v: R(u) * v + u * R(v) + th * (u * v)
    left = lambda u, v: R(u) * v - v * R(u) - th * (v * u)
    tilde = lambda u: -(th * u) - R(u)
    br = lambda u, v: u * v - v * u
    return R, th, star, left, tilde, br


def _same(got: list, want: list) -> None:
    assert want and len(got) == len(want)
    for (law, lhs, rhs), (want_law, want_lhs, want_rhs) in zip(got, want):
        assert (law, lhs, rhs) == (want_law, want_lhs, want_rhs), law


def test_prelie_laws(monkeypatch):
    for alg in (MATRIX, INTEGRATION, STANDARD):
        R, th, star, left, tilde, br = _ops(alg)
        right = lambda u, v: -left(v, u)
        bracket = lambda u, v: left(u, v) - left(v, u)

        def triple_laws(x, y, z):
            xy, yx, yz = left(x, y), left(y, x), left(y, z)
            zy, xz, zx = left(z, y), left(x, z), left(z, x)
            yield "left", left(xy, z) - left(x, yz), left(yx, z) - left(y, xz)
            yield "right", right(-yx, z) - right(x, -zy), right(-zx, y) - right(x, -yz)
            jac = bracket(xy - yx, z) + bracket(yz - zy, x) + bracket(zx - xz, y)
            yield "jacobi", jac, alg.zero

        want = _plain(alg, ("triples", triple_laws))
        _same(_recorded(monkeypatch, algebra.check_prelie_axiom, alg, PLAN), want)


def test_double_product_laws(monkeypatch):
    for alg in (MATRIX, INTEGRATION, STANDARD):
        R, th, star, left, tilde, br = _ops(alg)

        def triple_laws(x, y, z):
            yield "assoc", star(star(x, y), z), star(x, star(y, z))

        def pair_laws(x, y):
            xy = star(x, y)
            yield "hom", R(xy), R(x) * R(y)
            yield "anti-hom", tilde(xy), -(tilde(x) * tilde(y))
            rhs = R(star(R(x), y) + star(x, R(y)) + th * xy)
            yield "rb-for-double", star(R(x), R(y)), rhs

        want = _plain(alg, ("triples", triple_laws), ("pairs", pair_laws))
        _same(_recorded(monkeypatch, algebra.check_double_assoc_and_hom, alg, PLAN), want)


def test_modified_ybe_laws(monkeypatch):
    for alg in (MATRIX, INTEGRATION, STANDARD):
        R, th, star, left, tilde, br = _ops(alg)
        b = lambda v: 2 * R(v) + th * v
        br_b = lambda u, v: HALF * (br(b(u), v) + br(u, b(v)))

        def pair_laws(x, y):
            bx, by = b(x), b(y)
            split = bx * y + x * by
            yield "associative", bx * by, b(split) - th**2 * (x * y)
            yield "lie", br(bx, by), b(br(bx, y) + br(x, by)) - th**2 * br(x, y)

        def triple_laws(x, y, z):
            xy, yz, zx = br_b(x, y), br_b(y, z), br_b(z, x)
            yield "jacobi", br_b(xy, z) + br_b(yz, x) + br_b(zx, y), alg.zero

        want = _plain(alg, ("pairs", pair_laws), ("triples", triple_laws))
        _same(_recorded(monkeypatch, yangbaxter.check_modified_ybe, alg, PLAN), want)


def test_operator_ybe_and_dendriform_laws(monkeypatch):
    for alg in (MATRIX0, INTEGRATION):
        R, th, star, left, tilde, br = _ops(alg)
        br_r = lambda u, v: br(R(u), v) + br(u, R(v))

        def pair_laws(x, y):
            yield "ybe", br(R(x), R(y)), R(br_r(x, y))

        def triple_laws(x, y, z):
            xy, yz, zx = br_r(x, y), br_r(y, z), br_r(z, x)
            yield "jacobi", br_r(xy, z) + br_r(yz, x) + br_r(zx, y), alg.zero
            lhs = br(br(x, R(y)), R(z)) - br(x, R(br(y, R(z))))
            yield "up-right-prelie", lhs, br(br(x, R(z)), R(y)) - br(x, R(br(z, R(y))))
            lhs = br(R(br(R(x), y)), z) - br(R(x), br(R(y), z))
            yield "down-left-prelie", lhs, br(R(br(R(y), x)), z) - br(R(y), br(R(x), z))

        def dendriform_laws(a, b, c):
            up_ab, down_ab, up_bc, down_bc = a * R(b), R(a) * b, b * R(c), R(b) * c
            yield "up-up", up_ab * R(c), a * R(up_bc + down_bc)
            yield "down-down", R(a) * down_bc, R(up_ab + down_ab) * c
            if alg.commutative:
                yield "comm", R(a) * down_bc, R(down_ab + R(b) * a) * c

        want = _plain(alg, ("pairs", pair_laws), ("triples", triple_laws))
        _same(_recorded(monkeypatch, yangbaxter.check_operator_ybe, alg, PLAN), want)
        want = _plain(alg, ("triples", dendriform_laws))
        _same(_recorded(monkeypatch, yangbaxter.check_dendriform, alg, PLAN), want)


def test_atkinson_lemma_laws(monkeypatch):
    for alg in (MATRIX, INTEGRATION, STANDARD):
        R, th, star, left, tilde, br = _ops(alg)

        def laws(a, b):
            yield "lemma", R(a) * tilde(b), R(a * tilde(b)) + tilde(R(a) * b)

        # the lemma's laws come first, before those of the source
        want = _plain(alg, ("pairs", laws))
        seen = _recorded(monkeypatch, identities.check_atkinson, alg, [alg.one], 2, PLAN)
        _same(seen[: len(want)], want)


# broken operators, each built from the carrier's own R
MUTANTS = {
    "2R": lambda alg: lambda x: 2 * alg.rb(x),
    "R+id": lambda alg: lambda x: alg.rb(x) + x,
    "RR": lambda alg: lambda x: alg.rb(alg.rb(x)),
    "x*x": lambda alg: lambda x: x * x,
    "R+1": lambda alg: lambda x: alg.rb(x) + alg.one,
}


def _atkinson(alg, plan):
    """check_atkinson at order 2 with the plan's first draw as its one source."""
    return identities.check_atkinson(alg, [plan.pairs(alg)[0][0]], 2, plan)


def _bogoliubov(alg, plan):
    """check_bogoliubov on the order-4 series whose coefficients after the
    zero constant term are the plan's first four draws."""
    draws = [v for pair in plan.pairs(alg)[:2] for v in pair]
    return identities.check_bogoliubov(alg, LambdaSeries(alg, (alg.zero, *draws)))


def test_every_stated_law_can_fail(monkeypatch):
    """Each law of the checks that test R fails for at least one (carrier,
    broken operator) pair. A law that holds for every map R (a ring identity
    of the carrier, or true by how the check builds its values) would test
    nothing about R. Grades of one series law count as one law; a pair the
    check refuses with ConfigError is skipped."""
    plan = SamplePlan("random", 5, 5)
    m3 = matrix_algebra(3)
    carriers = (
        m3,
        replace(m3, weight=Fraction(0)),
        integration_algebra(200),
        noncommutative_standard_algebra(4),
    )
    checks = [
        (check, carriers)
        for check in (
            algebra.check_rb_law,
            algebra.check_linearity,
            algebra.check_double_assoc_and_hom,
            algebra.check_prelie_axiom,
            yangbaxter.check_modified_ybe,
            _atkinson,
            yangbaxter.check_operator_ybe,
            yangbaxter.check_dendriform,
        )
    ]
    checks.append((_bogoliubov, (laurent_algebra(16, 16),)))
    stated, failed = set(), set()
    for check, algs in checks:
        ran = False
        for alg, mutant in itertools.product(algs, MUTANTS.values()):
            try:
                seen = _recorded(monkeypatch, check, replace(alg, rb=mutant(alg)), plan)
            except ConfigError:
                continue
            ran = True
            for law, lhs, rhs in seen:
                key = (check.__name__, law.split(" grade ")[0])
                stated.add(key)
                if not lhs == rhs:
                    failed.add(key)
        assert ran, check.__name__
    assert sorted(stated - failed) == []
