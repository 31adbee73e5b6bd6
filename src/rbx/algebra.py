"""The weighted Rota-Baxter algebra contract and its derived structure.

An ``RBAlgebra`` bundles a unital associative carrier, a linear operator R and
a rational weight theta subject to

    R(x) R(y) = R( R(x) y + x R(y) + theta x y ).           (rb law)

Everything else here is derived from that single relation: the associative
double product, the complementary tilde operator, the induced pre-Lie
products, the B operator, and the half-shuffle split. The ``check_*``
functions verify the laws over a declared ``SamplePlan``; they return results,
never raise on mathematical failure.

Every check in the package states its laws as (law, lhs, rhs) triples;
``first_failure`` compares them, stops at the first unequal pair and renders it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ConfigError
from .report import CheckResult

__all__ = [
    "RBAlgebra",
    "SamplePlan",
    "double_product",
    "tilde_operator",
    "prelie_left",
    "prelie_right",
    "b_operator",
    "half_shuffles",
    "first_failure",
    "check_rb_law",
    "check_linearity",
    "check_double_assoc_and_hom",
    "check_weight_rescale",
    "check_prelie_axiom",
]


@dataclass(frozen=True, eq=False)
class RBAlgebra:
    """A carrier with unit, a Rota-Baxter operator and its weight.

    ``basis`` is the declared finite generator set used by exhaustive sample
    plans; ``random_element`` draws a seeded random carrier element. Elements
    are immutable values implementing +, -, * and Fraction * element.
    """

    name: str
    weight: Fraction
    zero: object
    one: object
    rb: object  # element -> element
    commutative: bool
    basis: tuple
    random_element: object  # random.Random -> element

    def rescaled(self, beta: Fraction) -> "RBAlgebra":
        """The operator beta*R, which is Rota-Baxter of weight beta*theta."""
        beta = Fraction(beta)
        inner = self.rb
        return replace(
            self,
            name=f"{self.name}*[beta={beta}]",
            weight=beta * self.weight,
            rb=lambda x: beta * inner(x),
        )


@dataclass(frozen=True)
class SamplePlan:
    """Where the universally quantified laws are actually tested.

    ``exhaustive`` enumerates the algebra's declared basis; ``random`` draws
    fresh seeded tuples per trial. Deterministic given the seed.
    """

    mode: str = "random"
    trials: int = 200
    seed: int = 42

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown sample mode {self.mode!r}")
        if self.mode == "random" and self.trials < 1:
            raise ValueError(f"a random plan needs at least one trial, got {self.trials}")

    def singles(self, alg: RBAlgebra):
        if self.mode == "exhaustive":
            return list(alg.basis)
        rng = random.Random(self.seed)
        return [alg.random_element(rng) for _ in range(self.trials)]

    def pairs(self, alg: RBAlgebra):
        if self.mode == "exhaustive":
            return list(itertools.product(alg.basis, repeat=2))
        rng = random.Random(self.seed)
        return [
            (alg.random_element(rng), alg.random_element(rng)) for _ in range(self.trials)
        ]

    def triples(self, alg: RBAlgebra):
        if self.mode == "exhaustive":
            return list(itertools.product(alg.basis, repeat=3))
        rng = random.Random(self.seed)
        return [
            (alg.random_element(rng), alg.random_element(rng), alg.random_element(rng))
            for _ in range(self.trials)
        ]


def double_product(alg: RBAlgebra, x, y):
    """x * y in the associative double product: R(x)y + xR(y) + theta xy."""
    return _star(alg, x, y, alg.rb(x), alg.rb(y))


def _star(alg: RBAlgebra, x, y, rx, ry):
    """The double product with rx = R(x) and ry = R(y) already computed."""
    return rx * y + x * ry + alg.weight * (x * y)


def tilde_operator(alg: RBAlgebra, x):
    """The complementary operator -theta*x - R(x), Rota-Baxter of the same weight."""
    return _tilde(alg, x, alg.rb(x))


def _tilde(alg: RBAlgebra, x, rx):
    return -(alg.weight * x) - rx


def prelie_left(alg: RBAlgebra, a, b):
    """Left pre-Lie product R(a)b - bR(a) - theta*b*a."""
    return _prelie(alg, a, alg.rb(a), b)


def _prelie(alg: RBAlgebra, a, ra, b):
    """prelie_left with ra = R(a) already computed."""
    return ra * b - b * ra - alg.weight * (b * a)


def prelie_right(alg: RBAlgebra, a, b):
    """Right pre-Lie companion: -prelie_left(b, a)."""
    return -prelie_left(alg, b, a)


def b_operator(alg: RBAlgebra, x):
    """B(x) = R(x) - tilde(x) = 2R(x) + theta*x."""
    return 2 * alg.rb(x) + alg.weight * x


def half_shuffles(alg: RBAlgebra, x, y):
    """The pair (x up y, x down y) = (x R(y), R(x) y).

    Their sum plus theta*x*y recombines into the double product.
    """
    return (x * alg.rb(y), alg.rb(x) * y)


# characters of each rendered value a counterexample keeps
CUT = 300


def _cut(value) -> str:
    text = str(value)
    return text if len(text) <= CUT else f"{text[:CUT]}...[{len(text)} chars]"


def first_failure(model: str, samples, laws, names) -> str | None:
    """``model=..; law=..; <name>=<input>..; lhs=..; rhs=..; diff=<lhs - rhs>``
    for the first (law, lhs, rhs) of ``laws(*sample)`` with lhs != rhs, each
    value cut at CUT characters; None if all hold. No later law or sample is
    evaluated. An empty sample raises ``ConfigError``: it would check nothing.
    """
    if not samples:
        raise ConfigError(f"model {model}: the sample is empty, so no law would be checked")
    for sample in samples:
        for law, lhs, rhs in laws(*sample):
            if not lhs == rhs:
                shown = [("model", model), ("law", law), *zip(names, map(_cut, sample))]
                shown += [("lhs", _cut(lhs)), ("rhs", _cut(rhs)), ("diff", _cut(lhs - rhs))]
                return "; ".join(f"{key}={value}" for key, value in shown)
    return None


def check_rb_law(alg: RBAlgebra, plan: SamplePlan, name: str | None = None) -> CheckResult:
    """R(x)R(y) = R(R(x)y + xR(y) + theta xy) on all sampled pairs."""

    def laws(x, y):
        rx, ry = alg.rb(x), alg.rb(y)
        yield "rb", rx * ry, alg.rb(_star(alg, x, y, rx, ry))

    name = name or f"rb-law/{alg.name}/{plan.mode}"
    return CheckResult.of(name, "Eq. (RBR)", first_failure(alg.name, plan.pairs(alg), laws, "xy"))


def check_linearity(alg: RBAlgebra, plan: SamplePlan) -> CheckResult:
    """R(q*x + y) = q*R(x) + R(y) for sampled pairs and a few rational scalars."""
    scalars = (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5))

    def laws(x, y):
        rx, ry = alg.rb(x), alg.rb(y)
        for q in scalars:
            yield f"linear q={q}", alg.rb(q * x + y), q * rx + ry

    bad = first_failure(alg.name, plan.pairs(alg), laws, "xy")
    return CheckResult.of(f"rb-linear/{alg.name}/{plan.mode}", "Eq. (RBR)", bad)


def check_double_assoc_and_hom(alg: RBAlgebra, plan: SamplePlan) -> CheckResult:
    """The double product is associative; R is a homomorphism from it, the
    tilde operator an anti-homomorphism; and R is Rota-Baxter for it too."""
    rb, theta = alg.rb, alg.weight

    def triple_laws(x, y, z):
        rx, ry, rz = rb(x), rb(y), rb(z)
        xy, yz = _star(alg, x, y, rx, ry), _star(alg, y, z, ry, rz)
        yield "assoc", _star(alg, xy, z, rb(xy), rz), _star(alg, x, yz, rx, rb(yz))

    def pair_laws(x, y):
        rx, ry = rb(x), rb(y)
        xy = _star(alg, x, y, rx, ry)
        rxy = rb(xy)
        yield "hom", rxy, rx * ry
        yield "anti-hom", _tilde(alg, xy, rxy), -(_tilde(alg, x, rx) * _tilde(alg, y, ry))
        # rb law with the carrier product replaced by the double product
        rrx, rry = rb(rx), rb(ry)
        lhs = _star(alg, rx, ry, rrx, rry)
        yield "rb-for-double", lhs, rb(
            _star(alg, rx, y, rrx, ry) + _star(alg, x, ry, rx, rry) + theta * xy
        )

    bad = first_failure(alg.name, plan.triples(alg), triple_laws, "xyz") or first_failure(
        alg.name, plan.pairs(alg), pair_laws, "xy"
    )
    return CheckResult.of(f"double-product/{alg.name}/{plan.mode}", "Eq. (double)", bad)


def check_weight_rescale(
    alg: RBAlgebra, beta: Fraction, plan: SamplePlan, name: str | None = None
) -> CheckResult:
    """beta*R satisfies the rb law with weight beta*theta."""
    name = name or f"weight-rescale/{alg.name}/beta={beta}/{plan.mode}"
    return check_rb_law(alg.rescaled(beta), plan, name=name)


def check_prelie_axiom(alg: RBAlgebra, plan: SamplePlan) -> CheckResult:
    """Left and right pre-Lie laws, plus the bracket identifications.

    Checks (x|>y)|>z - x|>(y|>z) = (y|>x)|>z - y|>(x|>z), the mirrored right
    law, Jacobi for the induced bracket, and that the brackets of |> and of
    the double product coincide.
    """
    rb = alg.rb
    left = lambda a, b: prelie_left(alg, a, b)
    right = lambda a, b: prelie_right(alg, a, b)
    bracket = lambda a, b: left(a, b) - left(b, a)

    def triple_laws(x, y, z):
        # the six products of two distinct inputs, shared by the laws below
        rx, ry, rz = rb(x), rb(y), rb(z)
        xy, yx = _prelie(alg, x, rx, y), _prelie(alg, y, ry, x)
        yz, zy = _prelie(alg, y, ry, z), _prelie(alg, z, rz, y)
        xz, zx = _prelie(alg, x, rx, z), _prelie(alg, z, rz, x)
        yield "left", left(xy, z) - _prelie(alg, x, rx, yz), left(yx, z) - _prelie(alg, y, ry, xz)
        # right(a, b) = -left(b, a), so right(x, y) = -yx and so on
        yield "right", right(-yx, z) - right(x, -zy), right(-zx, y) - right(x, -yz)
        jac = (
            bracket(xy - yx, z)
            + bracket(yz - zy, x)
            + bracket(zx - xz, y)
        )
        yield "jacobi", jac, alg.zero

    def pair_laws(x, y):
        rx, ry = rb(x), rb(y)
        lhs = _prelie(alg, x, rx, y) - _prelie(alg, y, ry, x)
        yield "bracket-match", lhs, _star(alg, x, y, rx, ry) - _star(alg, y, x, ry, rx)

    bad = first_failure(alg.name, plan.triples(alg), triple_laws, "xyz") or first_failure(
        alg.name, plan.pairs(alg), pair_laws, "xy"
    )
    return CheckResult.of(f"prelie/{alg.name}/{plan.mode}", "Eq. (pLidentity)", bad)
