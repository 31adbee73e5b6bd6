"""The weighted Rota-Baxter algebra contract and its derived structure.

An ``RBAlgebra`` bundles a unital associative carrier, a linear operator R and
a rational weight theta subject to

    R(x) R(y) = R( R(x) y + x R(y) + theta x y ).           (rb law)

Everything else here is derived from that single relation: the associative
double product, the complementary tilde operator, the induced left pre-Lie
product and the B operator. The ``check_*`` functions verify the laws over a
declared ``SamplePlan``; they return results, never raise on mathematical
failure.

Every check in the package states its laws as (law, lhs, rhs) triples;
``first_failure`` compares them, stops at the first unequal pair and renders it.
"""

from __future__ import annotations

import itertools
import os
import random
import signal
import threading
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import ConfigError
from .report import CheckResult


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

    ``exhaustive`` enumerates the algebra's declared basis; ``random`` reads
    seeded draws: its pairs and triples are consecutive draws of one
    generator per carrier, so a plan with fewer trials checks a prefix of the
    samples of one with more. Deterministic given the seed.

    ``held`` is [sampler, seed, generator, draws] for one sampler at a time.
    ``replace`` keeps it, so a plan and its copies at fewer trials read one
    sequence of draws instead of restarting the generator per check. The draws
    are the ones a fresh ``random.Random(seed)`` gives, because only the
    sampler consumes it. A new sampler or seed replaces the held draws.
    """

    mode: str = "random"
    trials: int = 200
    seed: int = 42
    held: list = field(default_factory=lambda: [None] * 4, compare=False, repr=False)

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown sample mode {self.mode!r}")
        if self.mode == "random" and self.trials < 1:
            raise ValueError(f"a random plan needs at least one trial, got {self.trials}")

    def _draws(self, alg: RBAlgebra, arity: int) -> list:
        """The first arity * trials elements ``alg`` draws from ``random.Random(seed)``."""
        held, sampler, count = self.held, alg.random_element, arity * self.trials
        if held[0] is not sampler or held[1] != self.seed:
            held[:] = sampler, self.seed, random.Random(self.seed), []
        _, _, rng, drawn = held
        drawn.extend(sampler(rng) for _ in range(count - len(drawn)))
        return drawn[:count]

    def pairs(self, alg: RBAlgebra):
        if self.mode == "exhaustive":
            return list(itertools.product(alg.basis, repeat=2))
        draws = self._draws(alg, 2)
        return list(zip(draws[::2], draws[1::2]))

    def triples(self, alg: RBAlgebra):
        if self.mode == "exhaustive":
            return list(itertools.product(alg.basis, repeat=3))
        draws = self._draws(alg, 3)
        return list(zip(draws[::3], draws[1::3], draws[2::3]))


def double_product(alg: RBAlgebra, x, y):
    """x * y in the associative double product: R(x)y + xR(y) + theta xy."""
    return _star(alg, x, y, alg.rb(x), alg.rb(y))


def _star(alg: RBAlgebra, x, y, rx, ry):
    """The double product with rx = R(x) and ry = R(y) already computed.

    At weight 0 the product xy is not formed.
    """
    out = rx * y + x * ry
    return out + alg.weight * (x * y) if alg.weight else out


def tilde_operator(alg: RBAlgebra, x):
    """The complementary operator -theta*x - R(x), Rota-Baxter of the same weight."""
    return _tilde(alg, x, alg.rb(x))


def _tilde(alg: RBAlgebra, x, rx):
    """tilde_operator with rx = R(x) already computed, as (-theta)x - R(x): at
    weight -1 the scalar multiple is x itself and at weight 0 it is not formed,
    so one carrier pass."""
    return (-alg.weight) * x - rx if alg.weight else -rx


def _r_pair(alg: RBAlgebra, v) -> tuple:
    """(R(v), Rtilde(v)), with R applied once, for an operand read again."""
    rv = alg.rb(v)
    return rv, _tilde(alg, v, rv)


def prelie_left(alg: RBAlgebra, a, b):
    """Left pre-Lie product R(a)b - bR(a) - theta*b*a, the plain formula."""
    ra = alg.rb(a)
    out = ra * b - b * ra
    return out - alg.weight * (b * a) if alg.weight else out


def _prelie(pair, b):
    """prelie_left with pair = (R(a), Rtilde(a)) already computed.

    b Rtilde(a) = -b R(a) - theta*b*a by bilinearity alone, so a |> b =
    R(a)b + b Rtilde(a) takes two carrier products.
    """
    ra, ta = pair
    return ra * b + b * ta


def b_operator(alg: RBAlgebra, x):
    """B(x) = R(x) - tilde(x) = 2R(x) + theta*x."""
    return 2 * alg.rb(x) + alg.weight * x


# characters of each rendered value a counterexample keeps
CUT = 300


def _cut(value) -> str:
    text = str(value)
    return text if len(text) <= CUT else f"{text[:CUT]}...[{len(text)} chars]"


# (this process's share, run-wide sample counter, whether the other process's
# share failed) in a split run; None outside one, in its serial rerun and
# while a check evaluates its laws
_share = None


class _Diverged(BaseException):
    """A split run met a failure: only a serial rerun renders the serial verdict."""


def _first_in(model: str, samples, laws, names) -> str | None:
    """first_failure's verdict on ``samples``, evaluated in order in this process."""
    for sample in samples:
        for law, lhs, rhs in laws(*sample):
            if not lhs == rhs:
                shown = [("model", model), ("law", law), *zip(names, map(_cut, sample))]
                shown += [("lhs", _cut(lhs)), ("rhs", _cut(rhs)), ("diff", _cut(lhs - rhs))]
                return "; ".join(f"{key}={value}" for key, value in shown)
    return None


def split_run(job):
    """job(), run at once by this process and one forked child, each evaluating
    its share of the samples of every top-level first_failure call: run-wide
    sample i is the child's when i has an odd number of 1 bits (the Thue-Morse
    sequence, which evens out runs of alternately cheap and costly checks).

    The child's exit status is its verdict: it exits 0 only once its share of
    job() has returned. This process returns its own result once it has reaped
    the child with status 0, polling at the end of each top-level
    first_failure call, so a failure in the child's share ends the split
    there. On a failure or an exception in either process it kills and reaps
    the child, unless already reaped, and reruns job() serially, so every
    result, counterexample and exception is the serial one. job() runs
    serially without ``os.fork``, a second CPU or a fork that succeeds, in a
    process with threads (fork copies only the calling one), inside a split
    run and while SIGCHLD is ignored (the kernel then reaps the child at
    once, so its exit status cannot be read).
    """
    global _share
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if (
        _share is not None
        or cpus < 2
        or not hasattr(os, "fork")
        or threading.active_count() > 1
        or signal.getsignal(signal.SIGCHLD) is signal.SIG_IGN
    ):
        return job()
    try:
        pid = os.fork()
    except OSError:
        return job()
    if pid == 0:  # os._exit leaves the parent's stdio buffers unflushed
        code, _share = 1, (1, itertools.count(), lambda: False)
        try:
            job()
            code = 0
        finally:
            os._exit(code)
    status = None  # the child's wait status once reaped: 0 if its share passed

    def child_failed(wait: bool = False) -> bool:
        nonlocal status
        if status is None:
            reaped, code = os.waitpid(pid, 0 if wait else os.WNOHANG)
            status = code if reaped else None
        return bool(status)

    try:
        _share = 0, itertools.count(), child_failed
        result = job()
        if not child_failed(wait=True):
            return result
    except (Exception, _Diverged):
        pass
    finally:
        _share = None
        if status is None:  # a reaped pid may name another process by now
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return job()


def first_failure(model: str, samples, laws, names) -> str | None:
    """``model=..; law=..; <name>=<input>..; lhs=..; rhs=..; diff=<lhs - rhs>``
    for the first (law, lhs, rhs) of ``laws(*sample)`` with lhs != rhs, each
    value cut at CUT characters; None if all hold. Law values must support
    ``==`` and ``-``. An empty sample raises ``ConfigError``: it would check
    nothing.

    Inside ``split_run`` a call evaluates only this process's share of the
    samples and ends the split where that share fails, or after it if the
    other process's share has failed. A call made while laws are evaluated
    evaluates every sample, so a law value is always exact.
    """
    global _share
    if not samples:
        raise ConfigError(f"model {model}: the sample is empty, so no law would be checked")
    share, _share = _share, None
    try:
        if share is None:
            return _first_in(model, samples, laws, names)
        mine, index, other_failed = share
        picked = (s for s, i in zip(samples, index) if i.bit_count() & 1 == mine)
        if _first_in(model, picked, laws, names) is not None or other_failed():
            raise _Diverged
        return None
    finally:
        _share = share


def check_rb_law(alg: RBAlgebra, plan: SamplePlan, name: str | None = None) -> CheckResult:
    """R(x)R(y) = R(R(x)y + xR(y) + theta xy) on all sampled pairs."""

    def laws(x, y):
        rx, ry = alg.rb(x), alg.rb(y)
        yield "rb", rx * ry, alg.rb(_star(alg, x, y, rx, ry))

    name = name or f"rb-law/{alg.name}/{plan.mode}"
    return CheckResult.of(name, "Eq. (RBR)", first_failure(alg.name, plan.pairs(alg), laws, "xy"))


def check_linearity(alg: RBAlgebra, plan: SamplePlan) -> CheckResult:
    """R(q*x + y) = q*R(x) + R(y) for sampled pairs and a few nonzero rational
    scalars (at q = 0 both sides are R(y) for any map R)."""
    scalars = (Fraction(1), Fraction(-2), Fraction(3, 5))

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
        # R(x)y, xR(y) and R(x)R(y) recur below, so each is formed once
        rx_y, x_ry = rx * y, x * ry
        xy = rx_y + x_ry + theta * (x * y) if theta else rx_y + x_ry
        rxy = rb(xy)
        rx_ry = rx * ry
        yield "hom", rxy, rx_ry
        yield "anti-hom", _tilde(alg, xy, rxy), -(_tilde(alg, x, rx) * _tilde(alg, y, ry))
        # rb law with the carrier product replaced by the double product
        rrx, rry = rb(rx), rb(ry)
        lhs, rx_star_y, x_star_ry = rrx * ry + rx * rry, rrx * y + rx_ry, rx_ry + x * rry
        if theta:
            lhs = lhs + theta * rx_ry
            rx_star_y, x_star_ry = rx_star_y + theta * rx_y, x_star_ry + theta * x_ry
        inner = rx_star_y + x_star_ry
        yield "rb-for-double", lhs, rb(inner + theta * xy if theta else inner)

    bad = first_failure(alg.name, plan.triples(alg), triple_laws, "xyz") or first_failure(
        alg.name, plan.pairs(alg), pair_laws, "xy"
    )
    return CheckResult.of(f"double-product/{alg.name}/{plan.mode}", "Eq. (double)", bad)


def check_weight_rescale(alg: RBAlgebra, beta: Fraction, plan: SamplePlan) -> CheckResult:
    """beta*R satisfies the rb law with weight beta*theta."""
    name = f"weight-rescale/{alg.name}/beta={beta}/{plan.mode}"
    return check_rb_law(alg.rescaled(beta), plan, name=name)


def check_prelie_axiom(alg: RBAlgebra, plan: SamplePlan) -> CheckResult:
    """Left and right pre-Lie laws and Jacobi for the induced bracket.

    Checks (x|>y)|>z - x|>(y|>z) = (y|>x)|>z - y|>(x|>z), the mirrored right
    law, and Jacobi for the bracket [x, y] = x|>y - y|>x.
    """
    pair = lambda v: _r_pair(alg, v)

    def right(a, b, pb):
        """right(a, b) = -left(b, a), with pb = (R(b), Rtilde(b))."""
        return -_prelie(pb, a)

    def bracket(a, b, pb):
        """left(a, b) - left(b, a), with pb = (R(b), Rtilde(b))."""
        return _prelie(pair(a), b) - _prelie(pb, a)

    def laws(x, y, z):
        # the six products of two distinct inputs, shared by the laws below;
        # R is applied once to each distinct value
        px, py, pz = pair(x), pair(y), pair(z)
        xy, yx = _prelie(px, y), _prelie(py, x)
        yz, zy = _prelie(py, z), _prelie(pz, y)
        xz, zx = _prelie(px, z), _prelie(pz, x)
        lhs = _prelie(pair(xy), z) - _prelie(px, yz)
        yield "left", lhs, _prelie(pair(yx), z) - _prelie(py, xz)
        # right(x, y) = -yx and so on
        zy_, yz_ = -zy, -yz
        lhs = right(-yx, z, pz) - right(x, zy_, pair(zy_))
        yield "right", lhs, right(-zx, y, py) - right(x, yz_, pair(yz_))
        jac = bracket(xy - yx, z, pz) + bracket(yz - zy, x, px) + bracket(zx - xz, y, py)
        yield "jacobi", jac, alg.zero

    bad = first_failure(alg.name, plan.triples(alg), laws, "xyz")
    return CheckResult.of(f"prelie/{alg.name}/{plan.mode}", "Eq. (pLidentity)", bad)
