"""The weighted Rota-Baxter algebra contract and its derived structure.

An ``RBAlgebra`` bundles a unital associative carrier, a linear operator R and
a rational weight theta subject to

    R(x) R(y) = R( R(x) y + x R(y) + theta x y ).           (rb law)

Everything else here is derived from that single relation: the associative
double product, the complementary tilde operator, the induced pre-Lie
products, the B operator, and the half-shuffle split. The ``check_*``
functions verify the laws over a declared ``SamplePlan``; they return results,
never raise on mathematical failure.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction

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
    return alg.rb(x) - tilde_operator(alg, x)


def half_shuffles(alg: RBAlgebra, x, y):
    """The pair (x up y, x down y) = (x R(y), R(x) y).

    Their sum plus theta*x*y recombines into the double product.
    """
    return (x * alg.rb(y), alg.rb(x) * y)


def _counterexample(alg: RBAlgebra, lhs, rhs, **inputs) -> str:
    ins = "; ".join(f"{k}={v}" for k, v in inputs.items())
    return f"model={alg.name}; {ins}; lhs={lhs}; rhs={rhs}"


def check_rb_law(alg: RBAlgebra, plan: SamplePlan, name: str | None = None) -> CheckResult:
    """R(x)R(y) = R(R(x)y + xR(y) + theta xy) on all sampled pairs."""
    name = name or f"rb-law/{alg.name}/{plan.mode}"
    anchor = "Eq. (RBR)"
    for x, y in plan.pairs(alg):
        rx, ry = alg.rb(x), alg.rb(y)
        lhs = rx * ry
        rhs = alg.rb(_star(alg, x, y, rx, ry))
        if lhs != rhs:
            return CheckResult.bad(name, anchor, _counterexample(alg, lhs, rhs, x=x, y=y))
    return CheckResult.ok(name, anchor)


def check_linearity(alg: RBAlgebra, plan: SamplePlan, name: str | None = None) -> CheckResult:
    """R(q*x + y) = q*R(x) + R(y) for sampled pairs and a few rational scalars."""
    name = name or f"rb-linear/{alg.name}/{plan.mode}"
    anchor = "Eq. (RBR)"
    scalars = (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 5))
    for x, y in plan.pairs(alg):
        for q in scalars:
            lhs = alg.rb(q * x + y)
            rhs = q * alg.rb(x) + alg.rb(y)
            if lhs != rhs:
                return CheckResult.bad(
                    name, anchor, _counterexample(alg, lhs, rhs, q=q, x=x, y=y)
                )
    return CheckResult.ok(name, anchor)


def check_double_assoc_and_hom(
    alg: RBAlgebra, plan: SamplePlan, name: str | None = None
) -> CheckResult:
    """The double product is associative; R is a homomorphism from it, the
    tilde operator an anti-homomorphism; and R is Rota-Baxter for it too."""
    name = name or f"double-product/{alg.name}/{plan.mode}"
    anchor = "Eq. (double)"
    rb, theta = alg.rb, alg.weight
    for x, y, z in plan.triples(alg):
        rx, ry, rz = rb(x), rb(y), rb(z)
        xy, yz = _star(alg, x, y, rx, ry), _star(alg, y, z, ry, rz)
        lhs = _star(alg, xy, z, rb(xy), rz)
        rhs = _star(alg, x, yz, rx, rb(yz))
        if lhs != rhs:
            return CheckResult.bad(
                name, anchor, _counterexample(alg, lhs, rhs, law="assoc", x=x, y=y, z=z)
            )
    for x, y in plan.pairs(alg):
        rx, ry = rb(x), rb(y)
        xy = _star(alg, x, y, rx, ry)
        lhs = rb(xy)
        rhs = rx * ry
        if lhs != rhs:
            return CheckResult.bad(
                name, anchor, _counterexample(alg, lhs, rhs, law="hom", x=x, y=y)
            )
        tl = _tilde(alg, xy, lhs)
        tr = -(_tilde(alg, x, rx) * _tilde(alg, y, ry))
        if tl != tr:
            return CheckResult.bad(
                name, anchor, _counterexample(alg, tl, tr, law="anti-hom", x=x, y=y)
            )
        # rb law with the carrier product replaced by the double product
        rrx, rry = rb(rx), rb(ry)
        lhs = _star(alg, rx, ry, rrx, rry)
        rhs = rb(_star(alg, rx, y, rrx, ry) + _star(alg, x, ry, rx, rry) + theta * xy)
        if lhs != rhs:
            return CheckResult.bad(
                name, anchor, _counterexample(alg, lhs, rhs, law="rb-for-double", x=x, y=y)
            )
    return CheckResult.ok(name, anchor)


def check_weight_rescale(
    alg: RBAlgebra, beta: Fraction, plan: SamplePlan, name: str | None = None
) -> CheckResult:
    """beta*R satisfies the rb law with weight beta*theta."""
    name = name or f"weight-rescale/{alg.name}/beta={beta}/{plan.mode}"
    scaled = alg.rescaled(beta)
    inner = check_rb_law(scaled, plan, name=name)
    return inner


def check_prelie_axiom(alg: RBAlgebra, plan: SamplePlan, name: str | None = None) -> CheckResult:
    """Left and right pre-Lie laws, plus the bracket identifications.

    Checks (x|>y)|>z - x|>(y|>z) = (y|>x)|>z - y|>(x|>z), the mirrored right
    law, Jacobi for the induced bracket, and that the brackets of |> and of
    the double product coincide.
    """
    name = name or f"prelie/{alg.name}/{plan.mode}"
    anchor = "Eq. (pLidentity)"
    rb = alg.rb
    left = lambda a, b: prelie_left(alg, a, b)
    right = lambda a, b: prelie_right(alg, a, b)
    bracket = lambda a, b: left(a, b) - left(b, a)
    for x, y, z in plan.triples(alg):
        # the six products of two distinct inputs, shared by the laws below
        rx, ry, rz = rb(x), rb(y), rb(z)
        xy, yx = _prelie(alg, x, rx, y), _prelie(alg, y, ry, x)
        yz, zy = _prelie(alg, y, ry, z), _prelie(alg, z, rz, y)
        xz, zx = _prelie(alg, x, rx, z), _prelie(alg, z, rz, x)
        lhs = left(xy, z) - _prelie(alg, x, rx, yz)
        rhs = left(yx, z) - _prelie(alg, y, ry, xz)
        if lhs != rhs:
            return CheckResult.bad(
                name, anchor, _counterexample(alg, lhs, rhs, law="left", x=x, y=y, z=z)
            )
        # right(a, b) = -left(b, a), so right(x, y) = -yx and so on
        lhs = right(-yx, z) - right(x, -zy)
        rhs = right(-zx, y) - right(x, -yz)
        if lhs != rhs:
            return CheckResult.bad(
                name, anchor, _counterexample(alg, lhs, rhs, law="right", x=x, y=y, z=z)
            )
        jac = (
            bracket(xy - yx, z)
            + bracket(yz - zy, x)
            + bracket(zx - xz, y)
        )
        if jac != alg.zero:
            return CheckResult.bad(
                name, anchor, _counterexample(alg, jac, alg.zero, law="jacobi", x=x, y=y, z=z)
            )
    for x, y in plan.pairs(alg):
        rx, ry = rb(x), rb(y)
        lhs = _prelie(alg, x, rx, y) - _prelie(alg, y, ry, x)
        rhs = _star(alg, x, y, rx, ry) - _star(alg, y, x, ry, rx)
        if lhs != rhs:
            return CheckResult.bad(
                name, anchor, _counterexample(alg, lhs, rhs, law="bracket-match", x=x, y=y)
            )
    return CheckResult.ok(name, anchor)
