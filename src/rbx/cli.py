"""Command line front end: `rbx verify --suite <name> [flags]`.

Flags override config-file values override defaults. Exit code 0 when every
check passes, 1 when any check fails, 2 for configuration errors (bad flags,
out-of-range bounds, suite/model mismatches, pole-bound overflows).

Model carriers are sized from the requested order so that no intermediate of
any suite computation can hit a truncation bound; the bounds exist to catch
misconfiguration loudly, not to approximate.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .algebra import (
    RBAlgebra,
    SamplePlan,
    check_double_assoc_and_hom,
    check_linearity,
    check_prelie_axiom,
    check_rb_law,
    check_weight_rescale,
    prelie_left,
)
from .combinat import (
    MonoidAlphabet,
    Word,
    bilinear,
    is_shuffle_of,
    quasi_shuffle,
    quasi_shuffle_lower,
    quasi_shuffle_merge,
    quasi_shuffle_upper,
    shuffle,
    shuffle_lower,
    shuffle_sum,
    shuffle_upper,
)
from .errors import ConfigError
from .identities import (
    BSOperands,
    bogoliubov_decompose,
    check_atkinson,
    check_bogoliubov,
    check_bohnenblust_spitzer,
    check_flows_bch,
    check_flows_product_law,
    check_nc_spitzer,
    prelie_magnus,
    spitzer_check_commutative,
)
from .models import (
    commutative_standard_algebra,
    elementary_symmetric_check,
    check_vector_field_prelie,
    finite_difference,
    integration_algebra,
    laurent_algebra,
    matrix_algebra,
    nested_sum_encoding,
    nested_sum_encoding_sum,
    noncommutative_standard_algebra,
    standard_generator,
    summation_algebra,
    LaurentElement,
    RatMatrix,
    SeqElement,
)
from .polynomials import NCPoly
from .report import CheckResult, Report, emit_report
from .scalars import parse_rational
from .series import LambdaSeries
from .yangbaxter import (
    TensorR,
    aybe_check,
    check_dendriform,
    check_modified_ybe,
    check_operator_ybe,
    tensor_rb_algebra,
)

SUITES = (
    "rb-laws",
    "shuffle",
    "quasi-shuffle",
    "dendriform",
    "prelie",
    "spitzer",
    "nc-spitzer",
    "magnus",
    "bohnenblust-spitzer",
    "atkinson",
    "bogoliubov",
    "flows-bch",
    "yang-baxter",
    "standard-symmetric",
)

MODELS = (
    "standard-comm",
    "standard-nc",
    "laurent",
    "matrix",
    "integration",
    "summation",
    "words",
)

DEGREE_CAP = 8


@dataclass(frozen=True)
class SuiteConfig:
    suite: str = "all"
    model: str | None = None
    order: int = 6
    window: int = 10
    dim: int = 3
    weight: Fraction | None = None
    alphabet: int = 4
    bs_arity: int = 3
    trials: int = 200
    seed: int = 42
    format: str = "text"
    output: str | None = None

    def __post_init__(self):
        if self.suite != "all" and self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.model is not None and self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if not 1 <= self.order <= 8:
            raise ConfigError(f"order must be in 1..8, got {self.order}")
        if not 3 <= self.window <= 16:
            raise ConfigError(f"window must be in 3..16, got {self.window}")
        if not 2 <= self.dim <= 4:
            raise ConfigError(f"dim must be in 2..4, got {self.dim}")
        if not 1 <= self.alphabet <= 9:
            raise ConfigError(f"alphabet size must be in 1..9, got {self.alphabet}")
        if not 1 <= self.bs_arity <= 6:
            raise ConfigError(f"bs-arity must be in 1..6, got {self.bs_arity}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if self.format not in ("text", "json"):
            raise ConfigError(f"format must be text or json, got {self.format!r}")


# ---------------------------------------------------------------------------
# configuration parsing

_INT_KEYS = ("order", "window", "dim", "alphabet", "bs_arity", "trials", "seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbx", description="verification suites for Rota-Baxter identities"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=SUITES + ("all",))
    v.add_argument("--model", choices=MODELS)
    v.add_argument("--order", type=int)
    v.add_argument("--window", type=int)
    v.add_argument("--dim", type=int)
    v.add_argument("--weight", help="rescale operators to this weight, e.g. 2/3")
    v.add_argument("--alphabet", type=int)
    v.add_argument("--bs-arity", type=int, dest="bs_arity")
    v.add_argument("--trials", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--format", choices=("text", "json"))
    v.add_argument("--output")
    v.add_argument("--config", help="flat key=value file; flags override it")
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def parse_config(argv) -> SuiteConfig:
    ns = _build_parser().parse_args(argv)
    merged = {}
    if ns.config:
        file_values = _read_config_file(ns.config)
        for key, text in file_values.items():
            if key in _INT_KEYS:
                try:
                    merged[key] = int(text)
                except ValueError as exc:
                    raise ConfigError(f"config key {key}: expected integer, got {text!r}") from exc
            elif key == "weight":
                merged[key] = text
            elif key in ("suite", "model", "format", "output"):
                merged[key] = text
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key in ("suite", "model", "format", "output", "weight", *_INT_KEYS):
        value = getattr(ns, key)
        if value is not None:
            merged[key] = value
    if "weight" in merged and merged["weight"] is not None:
        try:
            merged["weight"] = parse_rational(str(merged["weight"]))
        except ValueError as exc:
            raise ConfigError(f"bad weight {merged['weight']!r}: {exc}") from exc
    return SuiteConfig(**merged)


# ---------------------------------------------------------------------------
# model registry


def default_models(cfg: SuiteConfig) -> dict:
    """Instantiate every carrier, sized so suite internals cannot overflow."""
    bound = max(12, 4 * cfg.order)
    cap = max(24, 4 * (cfg.order + 1))
    return {
        "standard-comm": commutative_standard_algebra(cfg.window, DEGREE_CAP),
        "standard-nc": noncommutative_standard_algebra(cfg.window, DEGREE_CAP),
        "laurent": laurent_algebra(bound, bound),
        "matrix": matrix_algebra(cfg.dim),
        "matrix2": matrix_algebra(2),
        "integration": integration_algebra(cap),
        "summation": summation_algebra(cfg.window),
    }


def _select(cfg: SuiteConfig, registry: dict, wanted: tuple) -> list:
    """Algebras a suite runs on, honoring --model and --weight."""
    if cfg.model is None:
        names = list(wanted)
    elif cfg.model in wanted:
        names = [cfg.model]
        if cfg.model == "matrix" and "matrix2" in wanted:
            names.append("matrix2")
    else:
        raise ConfigError(f"model {cfg.model!r} is not applicable here")
    algs = [registry[name] for name in names]
    if cfg.weight is not None:
        rescaled = []
        for alg in algs:
            if alg.weight == 0:
                raise ConfigError(f"cannot rescale weight-0 model {alg.name}")
            rescaled.append(alg.rescaled(cfg.weight / alg.weight))
        algs = rescaled
    return algs


def _plans(cfg: SuiteConfig):
    return SamplePlan("exhaustive"), SamplePlan("random", cfg.trials, cfg.seed)


def _triple_plan(cfg: SuiteConfig) -> SamplePlan:
    # laws quantified over triples cost ~10x a pair check per sample
    return SamplePlan("random", min(cfg.trials, 60), cfg.seed)


def _tag(check: CheckResult, suffix: str) -> CheckResult:
    return replace(check, name=f"{check.name}/{suffix}")


def _laurent_sample(rng: random.Random, alg: RBAlgebra) -> LaurentElement:
    probe = alg.zero
    coeffs = {
        e: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for e in range(-2, 3)
    }
    return LaurentElement(coeffs, probe.pole_bound, probe.trunc)


def _suite_sources(cfg: SuiteConfig, alg: RBAlgebra, count: int) -> list:
    """Deterministic per-model sample elements, canonical one first.

    Standard-model sources are unit-plus-letter combinations: series
    engines are linear in the source grade by grade, and the full
    generator makes order-6 towers explode combinatorially.
    """
    rng = random.Random(cfg.seed)
    name = alg.name
    out = []
    if name.startswith("matrix") or name.startswith("tensor"):
        dim = alg.one.dim
        out.append(RatMatrix.unit(dim, 1, 2) + RatMatrix.unit(dim, 2, 1))
    elif name.startswith("standard"):
        out.append(alg.one + alg.basis[1])
    elif name.startswith("laurent"):
        probe = alg.zero
        out.append(LaurentElement({-1: 1, 0: 1}, probe.pole_bound, probe.trunc))
    elif name.startswith("integration"):
        out.append(alg.basis[1])
    else:
        out.append(alg.random_element(rng))
    while len(out) < count:
        if name.startswith("laurent"):
            out.append(_laurent_sample(rng, alg))
        elif name.startswith("standard"):
            out.append(_bs_operand(alg, rng))
        else:
            out.append(alg.random_element(rng))
    return out[:count]


# ---------------------------------------------------------------------------
# suites


def _suite_rb_laws(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    ex, rnd = _plans(cfg)
    algs = _select(
        cfg,
        registry,
        ("matrix", "matrix2", "standard-comm", "standard-nc", "laurent", "integration", "summation"),
    )
    small = _triple_plan(cfg)
    for alg in algs:
        checks.append(check_rb_law(alg, ex))
        checks.append(_tag(check_rb_law(alg, rnd), "seeded"))
        checks.append(check_linearity(alg, small))
        checks.append(check_double_assoc_and_hom(alg, small))
        if alg.weight != 0:
            checks.append(check_weight_rescale(alg, Fraction(2), small))
    return checks


def _suite_prelie(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    small = _triple_plan(cfg)
    algs = _select(
        cfg,
        registry,
        ("matrix", "standard-comm", "standard-nc", "laurent", "integration", "summation"),
    )
    for alg in algs:
        checks.append(check_prelie_axiom(alg, small))
    checks.append(check_vector_field_prelie(4))
    return checks


def _expected_shuffle_count(i: int, j: int) -> int:
    return math.comb(i + j, i)


def _suite_shuffle(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    anchor = "Eq. (shuffle)"

    bad = None
    for i in range(0, 5):
        for j in range(0, 5):
            u = Word(range(1, i + 1))
            v = Word(range(i + 1, i + j + 1))
            got = len(shuffle(u, v))
            if got != _expected_shuffle_count(i, j):
                bad = f"|u|={i}; |v|={j}: {got} interleavings"
                break
    checks.append(
        CheckResult.ok("shuffle/cardinality", anchor)
        if bad is None
        else CheckResult.bad("shuffle/cardinality", anchor, bad)
    )

    w_yes = Word((1, 5, 2, 6, 7, 3, 4))
    w_no = Word((1, 4, 2, 5, 6, 3, 7))
    u, v = Word((1, 2, 3, 4)), Word((5, 6, 7))
    member_ok = is_shuffle_of(w_yes, u, v) and not is_shuffle_of(w_no, u, v)
    checks.append(
        CheckResult.ok("shuffle/membership", anchor)
        if member_ok
        else CheckResult.bad("shuffle/membership", anchor, f"{w_yes} / {w_no}")
    )

    sh = lambda a, b: shuffle_sum(a, b)
    words = [Word((1,)), Word((2,)), Word((1, 2)), Word((3, 1))]
    bad = None
    for u in words:
        for v in words:
            if not sh(u, v) == sh(v, u):
                bad = f"u={u}; v={v}"
                break
        p = NCPoly.from_word(u)
        for v in words:
            for w in words:
                left = bilinear(sh, sh(u, v), NCPoly.from_word(w))
                right = bilinear(sh, p, sh(v, w))
                if not left == right:
                    bad = f"assoc u={u}; v={v}; w={w}"
                    break
    checks.append(
        CheckResult.ok("shuffle/product-laws", anchor)
        if bad is None
        else CheckResult.bad("shuffle/product-laws", anchor, bad)
    )

    # half-shuffle axioms in the weight-0 free model
    bad = None
    triples = [(Word((1,)), Word((2,)), Word((3,))), (Word((1, 2)), Word((3,)), Word((4,)))]
    for a, b, c in triples:
        if not shuffle_lower(a, b) == shuffle_upper(b, a):
            bad = f"flip a={a}; b={b}"
            break
        up = lambda x, y: shuffle_upper(x, y)
        lhs = bilinear(up, shuffle_upper(a, b), NCPoly.from_word(c))
        rhs = bilinear(up, NCPoly.from_word(a), shuffle_upper(b, c) + shuffle_upper(c, b))
        if not lhs == rhs:
            bad = f"upper assoc a={a}; b={b}; c={c}"
            break
        if not shuffle_upper(a, b) + shuffle_lower(a, b) == shuffle_sum(a, b):
            bad = f"recombine a={a}; b={b}"
            break
    checks.append(
        CheckResult.ok("shuffle/half-products", "Eq. (demishuffle0)")
        if bad is None
        else CheckResult.bad("shuffle/half-products", "Eq. (demishuffle0)", bad)
    )
    return checks


def _suite_quasi_shuffle(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    anchor = "Eq. (demi-quasi-shuffle)"
    alpha = MonoidAlphabet(cfg.alphabet)
    qs = lambda u, v: quasi_shuffle(u, v, alpha)

    got = qs(Word((1,)), Word((2,)))
    want = NCPoly(
        {Word((1, 2)): 1, Word((2, 1)): 1, Word((3,)): 1}
    )
    checks.append(
        CheckResult.ok("quasi-shuffle/single-letters", anchor)
        if got == want
        else CheckResult.bad("quasi-shuffle/single-letters", anchor, f"got {got}")
    )

    got = qs(Word((1,)), Word((2, 3)))
    want = NCPoly(
        {
            Word((1, 2, 3)): 1,
            Word((2, 1, 3)): 1,
            Word((2, 3, 1)): 1,
            Word((3, 3)): 1,
            Word((2, 4)): 1,
        }
    )
    checks.append(
        CheckResult.ok("quasi-shuffle/five-term", anchor)
        if got == want
        else CheckResult.bad("quasi-shuffle/five-term", anchor, f"got {got}")
    )

    bad = None
    words = list(alpha.words(2))[: 12]
    for u in words:
        for v in words:
            if not qs(u, v) == qs(v, u):
                bad = f"comm u={u}; v={v}"
                break
    small = [Word((1,)), Word((2,)), Word((1, 1))]
    for u in small:
        for v in small:
            for w in small:
                left = bilinear(qs, qs(u, v), NCPoly.from_word(w))
                right = bilinear(qs, NCPoly.from_word(u), qs(v, w))
                if not left == right:
                    bad = f"assoc u={u}; v={v}; w={w}"
    checks.append(
        CheckResult.ok("quasi-shuffle/product-laws", anchor)
        if bad is None
        else CheckResult.bad("quasi-shuffle/product-laws", anchor, bad)
    )

    # half products: down is the flip of up; up against up+down+merge associates
    bad = None
    trips = [(Word((1,)), Word((2,)), Word((1,))), (Word((2, 1)), Word((1,)), Word((3,)))]
    for x, y, z in trips:
        if not quasi_shuffle_lower(x, y, alpha) == quasi_shuffle_upper(y, x, alpha):
            bad = f"flip x={x}; y={y}"
            break
        up = lambda u, v: quasi_shuffle_upper(u, v, alpha)
        lhs = bilinear(up, quasi_shuffle_upper(x, y, alpha), NCPoly.from_word(z))
        inner = (
            quasi_shuffle_upper(y, z, alpha)
            + quasi_shuffle_upper(z, y, alpha)
            + quasi_shuffle_merge(y, z, alpha)
        )
        rhs = bilinear(up, NCPoly.from_word(x), inner)
        if not lhs == rhs:
            bad = f"upper assoc x={x}; y={y}; z={z}"
            break
    checks.append(
        CheckResult.ok("quasi-shuffle/half-products", anchor)
        if bad is None
        else CheckResult.bad("quasi-shuffle/half-products", anchor, bad)
    )

    # dropping the merge branch of the recursion must land on the plain shuffle
    bad = None
    for u in small:
        for v in small:
            if not _shuffle_by_recursion(u, v) == shuffle_sum(u, v):
                bad = f"u={u}; v={v}"
    checks.append(
        CheckResult.ok("quasi-shuffle/merge-free", "Eq. (shuffle)")
        if bad is None
        else CheckResult.bad("quasi-shuffle/merge-free", "Eq. (shuffle)", bad)
    )

    # nested-sum realization: encoding is multiplicative
    alg = registry["standard-comm"]
    window = len(alg.one.entries)
    gen = standard_generator(window, DEGREE_CAP, "comm")
    pairs = [
        (Word((1,)), Word((1,))),
        (Word((1,)), Word((2,))),
        (Word((2,)), Word((3,))),
        (Word((1, 2)), Word((1,))),
        (Word((1, 1)), Word((2, 1))),
    ]
    bad = None
    for u, v in pairs:
        lhs = nested_sum_encoding(alg, gen, u) * nested_sum_encoding(alg, gen, v)
        rhs = nested_sum_encoding_sum(alg, gen, qs(u, v))
        if not lhs == rhs:
            bad = f"u={u}; v={v}"
            break
    checks.append(
        CheckResult.ok("quasi-shuffle/nested-sums", "Eq. (shuffle)")
        if bad is None
        else CheckResult.bad("quasi-shuffle/nested-sums", "Eq. (shuffle)", bad)
    )
    return checks


def _shuffle_by_recursion(u: Word, v: Word) -> NCPoly:
    """Hoffman recursion with the merge branch removed."""
    if not len(u):
        return NCPoly.from_word(v)
    if not len(v):
        return NCPoly.from_word(u)
    a, b = u.letters[0], v.letters[0]
    ut, vt = Word(u.letters[1:]), Word(v.letters[1:])
    out = NCPoly.from_word(Word((a,))) * _shuffle_by_recursion(ut, v)
    return out + NCPoly.from_word(Word((b,))) * _shuffle_by_recursion(u, vt)


def _weight_zero_algebras(cfg: SuiteConfig, registry: dict) -> list:
    tensor = TensorR(((RatMatrix.unit(2, 1, 2), RatMatrix.unit(2, 1, 2)),))
    return [registry["integration"], tensor_rb_algebra(tensor)]


def _suite_dendriform(cfg: SuiteConfig, registry: dict) -> list:
    ex, rnd = _plans(cfg)
    checks = []
    for alg in _weight_zero_algebras(cfg, registry):
        checks.append(check_dendriform(alg, ex))
        checks.append(_tag(check_dendriform(alg, rnd), "seeded"))
    return checks


def _suite_spitzer(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    algs = _select(cfg, registry, ("standard-comm", "integration", "summation", "laurent"))
    for alg in algs:
        for i, x in enumerate(_suite_sources(cfg, alg, 3)):
            checks.append(_tag(spitzer_check_commutative(alg, x, cfg.order), f"x{i}"))
    return checks


def _suite_nc_spitzer(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    algs = _select(cfg, registry, ("matrix", "matrix2", "standard-nc", "standard-comm"))
    for alg in algs:
        count = 3 if alg.name.startswith("matrix") else 1
        for i, x in enumerate(_suite_sources(cfg, alg, count)):
            checks.append(_tag(check_nc_spitzer(alg, x, cfg.order), f"x{i}"))
    return checks


def _magnus_expected(alg: RBAlgebra, x) -> dict:
    """Grades 2..4 of the Magnus series, written out as pre-Lie chains."""
    p = lambda a, b: prelie_left(alg, a, b)
    xx = p(x, x)
    half = Fraction(1, 2)
    return {
        2: half * xx,
        3: Fraction(1, 4) * p(xx, x) + Fraction(1, 12) * p(x, xx),
        "4-terms": (
            Fraction(1, 8) * p(p(xx, x), x)
            + Fraction(1, 24) * p(p(x, xx), x)
            + Fraction(1, 24) * p(x, p(xx, x))
            + Fraction(1, 24) * p(xx, xx)
        ),
        "4-reduced": Fraction(1, 6) * p(p(xx, x), x) + Fraction(1, 12) * p(x, p(xx, x)),
    }


def _suite_magnus(cfg: SuiteConfig, registry: dict) -> list:
    """Coefficients of the Magnus recursion in the word-sequence model.

    The lambda^4 oracle is the pre-Lie reduction of the recursion's own four
    chains; the commutative closed form theta^{-1} log(1 + theta F) fixes all
    signs (the spitzer suite re-verifies that closed form independently).
    """
    anchor = "Eq. (pLMag)"
    alg = registry["standard-nc"]
    window = len(alg.one.entries)
    x = standard_generator(window, DEGREE_CAP, "nc")
    omega = prelie_magnus(alg, x, 4).omega
    expected = _magnus_expected(alg, x)
    checks = []
    for grade, key in ((2, 2), (3, 3), (4, "4-terms"), (4, "4-reduced")):
        name = f"magnus/lambda{grade}" + ("/reduced" if key == "4-reduced" else "")
        got = omega.coefficient(grade)
        want = expected[key]
        checks.append(
            CheckResult.ok(name, anchor)
            if got == want
            else CheckResult.bad(name, anchor, f"got={got}; want={want}")
        )
    return checks


def _bs_operand(alg: RBAlgebra, rng: random.Random):
    # the identity is multilinear, so unit-plus-basis combinations cover it;
    # dense elements would inflate the n-fold products for no extra reach
    if alg.name.startswith("standard"):
        c = Fraction(rng.choice((-2, -1, 1, 2)))
        d = Fraction(rng.choice((-2, -1, 1, 2, 3)))
        a = rng.randrange(1, len(alg.basis))
        return c * alg.one + d * alg.basis[a]
    return alg.random_element(rng)


def _suite_bohnenblust_spitzer(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    arities = range(2, max(2, cfg.bs_arity) + 1)
    algs = _select(cfg, registry, ("standard-comm", "standard-nc", "matrix", "integration"))
    for alg in algs:
        runs = []
        if alg.commutative and alg.weight != 0:
            runs.append((alg, "commutative-partitions"))
        if alg.weight == 0:
            runs.append((alg, "weight-zero"))
        runs.append((alg, "cycles-prelie"))
        if alg.name.startswith("standard-nc") and cfg.weight is None:
            runs.append((alg.rescaled(Fraction(2, 3) / alg.weight), "cycles-prelie"))
        for target, form in runs:
            rng = random.Random(cfg.seed)
            for n in arities:
                ops = BSOperands(target, tuple(_bs_operand(target, rng) for _ in range(n)))
                checks.append(check_bohnenblust_spitzer(ops, form))
    return checks


def _suite_atkinson(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    _, rnd = _plans(cfg)
    algs = _select(
        cfg,
        registry,
        ("matrix", "matrix2", "standard-comm", "standard-nc", "laurent", "integration", "summation"),
    )
    for alg in algs:
        for i, x in enumerate(_suite_sources(cfg, alg, 2)):
            checks.append(_tag(check_atkinson(alg, x, cfg.order, rnd), f"x{i}"))
    return checks


def _suite_bogoliubov(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    alg = _select(cfg, registry, ("laurent",))[0]
    probe = alg.zero
    rng = random.Random(cfg.seed)
    order = min(cfg.order, 4)
    for i in range(20):
        coeffs = [alg.zero]
        for _ in range(order):
            coeffs.append(_laurent_sample(rng, alg))
        x = LambdaSeries(alg, tuple(coeffs))
        checks.append(_tag(check_bogoliubov(alg, x), f"x{i}"))
    # the displayed one-step example: x1 = 1/eps + 1
    x1 = LaurentElement({-1: 1, 0: 1}, probe.pole_bound, probe.trunc)
    f, hinv = bogoliubov_decompose(alg, LambdaSeries(alg, (alg.zero, x1)))
    pole = LaurentElement({-1: 1}, probe.pole_bound, probe.trunc)
    unit = LaurentElement({0: 1}, probe.pole_bound, probe.trunc)
    ok = f.coefficient(1) == pole and hinv.coefficient(1) == -unit
    checks.append(
        CheckResult.ok("bogoliubov/one-step", "Eq. (Atkins)")
        if ok
        else CheckResult.bad(
            "bogoliubov/one-step",
            "Eq. (Atkins)",
            f"f1={f.coefficient(1)}; hinv1={hinv.coefficient(1)}",
        )
    )
    return checks


def _suite_flows_bch(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    algs = _select(cfg, registry, ("matrix", "matrix2"))
    bch_order = min(cfg.order, 3)
    law_order = min(cfg.order, 4)
    for alg in algs:
        dim = alg.one.dim
        units = [RatMatrix.unit(dim, i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)]
        pairs = [(u, v) for u in units for v in units][: 16]
        rng = random.Random(cfg.seed)
        pairs += [(alg.random_element(rng), alg.random_element(rng)) for _ in range(20)]
        for i, (x, y) in enumerate(pairs):
            # one Magnus series per operand, shared by both checks
            omega_x = prelie_magnus(alg, x, bch_order).omega
            omega_y = prelie_magnus(alg, y, max(bch_order, law_order)).omega
            checks.append(_tag(check_flows_bch(alg, x, y, bch_order, omega_x, omega_y), f"p{i}"))
            checks.append(_tag(check_flows_product_law(alg, x, y, law_order, omega_y), f"p{i}"))
    return checks


def _suite_yang_baxter(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    ex, rnd = _plans(cfg)
    algs = _select(
        cfg,
        registry,
        ("matrix", "matrix2", "standard-comm", "standard-nc", "laurent", "integration", "summation"),
    )
    small = _triple_plan(cfg)
    for alg in algs:
        checks.append(check_modified_ybe(alg, small))

    nil = TensorR(((RatMatrix.unit(2, 1, 2), RatMatrix.unit(2, 1, 2)),))
    for mode in ("printed", "standard"):
        checks.append(_tag(aybe_check(nil, mode), "E12"))
    diag = TensorR(((RatMatrix.unit(2, 1, 1), RatMatrix.unit(2, 1, 1)),))
    for mode in ("printed", "standard"):
        inner = aybe_check(diag, mode)
        name = f"aybe/{mode}/E11-rejected"
        checks.append(
            CheckResult.ok(name, "Eq. (ag)")
            if inner.status == "fail"
            else CheckResult.bad(name, "Eq. (ag)", "known non-solution was accepted")
        )
    induced = tensor_rb_algebra(nil)
    checks.append(check_rb_law(induced, ex))
    checks.append(check_operator_ybe(induced, plan=ex))
    checks.append(_tag(check_operator_ybe(registry["integration"], plan=rnd), "abelian"))
    return checks


def _suite_standard_symmetric(cfg: SuiteConfig, registry: dict) -> list:
    checks = []
    window = cfg.window
    ks = sorted({min(3, window - 1), window // 2 + 1, window - 1})
    for n in range(1, 5):
        for k in ks:
            checks.append(elementary_symmetric_check(n, k, window, DEGREE_CAP))

    alg = registry["summation"]
    rng = random.Random(cfg.seed)
    bad = None
    for _ in range(5):
        s = alg.random_element(rng)
        summed = alg.rb(s)
        diff = finite_difference(summed)
        if not diff == SeqElement(s.entries[: window - 1]):
            bad = f"s={s}; diff(R(s))={diff}"
            break
    checks.append(
        CheckResult.ok("standard-symmetric/difference-inverts-sum", "Eq. (shuffle)")
        if bad is None
        else CheckResult.bad("standard-symmetric/difference-inverts-sum", "Eq. (shuffle)", bad)
    )
    return checks


_SUITE_TABLE = {
    "rb-laws": _suite_rb_laws,
    "shuffle": _suite_shuffle,
    "quasi-shuffle": _suite_quasi_shuffle,
    "dendriform": _suite_dendriform,
    "prelie": _suite_prelie,
    "spitzer": _suite_spitzer,
    "nc-spitzer": _suite_nc_spitzer,
    "magnus": _suite_magnus,
    "bohnenblust-spitzer": _suite_bohnenblust_spitzer,
    "atkinson": _suite_atkinson,
    "bogoliubov": _suite_bogoliubov,
    "flows-bch": _suite_flows_bch,
    "yang-baxter": _suite_yang_baxter,
    "standard-symmetric": _suite_standard_symmetric,
}


def run_suite(cfg: SuiteConfig, models: dict | None = None) -> Report:
    started = time.monotonic()
    registry = default_models(cfg)
    if models:
        registry.update(models)
    names = SUITES if cfg.suite == "all" else (cfg.suite,)
    checks = []
    for name in names:
        checks.extend(_SUITE_TABLE[name](cfg, registry))
    elapsed_ms = int((time.monotonic() - started) * 1000)
    params = {
        "suite": cfg.suite,
        "model": cfg.model,
        "order": cfg.order,
        "window": cfg.window,
        "dim": cfg.dim,
        "weight": str(cfg.weight) if cfg.weight is not None else None,
        "alphabet": cfg.alphabet,
        "bs_arity": cfg.bs_arity,
        "trials": cfg.trials,
        "seed": cfg.seed,
    }
    return Report(suite=cfg.suite, params=params, checks=tuple(checks), elapsed_ms=elapsed_ms)


def main(argv=None, models: dict | None = None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        report = run_suite(cfg, models)
        emit_report(report, cfg.format, cfg.output)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.failed == 0 else 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
