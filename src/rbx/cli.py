"""Command line front end: `rbx verify --suite <name> [flags]`.

Flags override config-file values override defaults. Exit code 0 when every
check passes, 1 when any check fails, 2 for configuration errors (bad flags,
out-of-range bounds, suite/model mismatches, pole-bound overflows).

Two declarations drive the suites. The model registry `_MODELS` gives each
carrier its factory, canonical source and sparse random operand. Each suite
registers with `@_suite`, naming the models `--model` may pick for it and
whether its identities hold at any weight; `_select` then applies `--model`
and `--weight` the same way for every suite.

Model carriers are sized from the requested order so that no intermediate of
any suite computation can hit a truncation bound; the bounds exist to catch
misconfiguration loudly, not to approximate.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import sys
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable

from .algebra import (
    SamplePlan,
    check_double_assoc_and_hom,
    check_linearity,
    check_prelie_axiom,
    check_rb_law,
    check_weight_rescale,
    first_failure,
    prelie_left,
    split_run,
)
from .combinat import (
    MonoidAlphabet,
    Word,
    _prefixed,
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
    atkinson_lemma,
    bogoliubov_decompose,
    check_atkinson,
    check_bogoliubov,
    check_bohnenblust_spitzer,
    check_flows_bch,
    check_flows_product_law,
    check_nc_spitzer,
    prelie_magnus,
    solve_fixed_point,
    spitzer_check_commutative,
    SIDE_LEFT,
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
from .scalars import parse_rational, randint
from .series import LambdaSeries
from .yangbaxter import (
    TensorR,
    aybe_check,
    check_dendriform,
    check_modified_ybe,
    check_operator_ybe,
    tensor_rb_algebra,
)

@dataclass(frozen=True)
class SuiteConfig:
    """One `rbx verify` run. SUITES and MODELS come from the tables below."""

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
        if not 2 <= self.bs_arity <= 6:
            raise ConfigError(f"bs-arity must be in 2..6, got {self.bs_arity}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if self.weight == 0:
            raise ConfigError("--weight 0 would rescale every operator to the zero map")
        if self.format not in ("text", "json"):
            raise ConfigError(f"format must be text or json, got {self.format!r}")


# ---------------------------------------------------------------------------
# configuration parsing

_KEYS = tuple(f.name for f in fields(SuiteConfig))
_INT_KEYS = tuple(f.name for f in fields(SuiteConfig) if f.type == "int")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbx", description="verification suites for Rota-Baxter identities"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=SUITES + ("all",))
    v.add_argument("--model", choices=MODELS)
    v.add_argument("--weight", help="rescale operators to this weight, e.g. 2/3 or --weight=-1/2")
    for key in _INT_KEYS:
        v.add_argument("--" + key.replace("_", "-"), type=int)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def parse_config(argv) -> SuiteConfig:
    ns = _build_parser().parse_args(argv)
    merged = {}
    for key, text in (_read_config_file(ns.config) if ns.config else {}).items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            merged[key] = int(text) if key in _INT_KEYS else text
        except ValueError as exc:
            raise ConfigError(f"config key {key}: expected integer, got {text!r}") from exc
    merged.update({key: getattr(ns, key) for key in _KEYS if getattr(ns, key) is not None})
    if merged.get("weight") is not None:
        try:
            merged["weight"] = parse_rational(str(merged["weight"]))
        except ValueError as exc:
            raise ConfigError(f"bad weight {merged['weight']!r}: {exc}") from exc
    return SuiteConfig(**merged)


# ---------------------------------------------------------------------------
# model registry


def _laurent(alg, coeffs) -> LaurentElement:
    return LaurentElement(coeffs, alg.zero.pole_bound, alg.zero.trunc)


def _random(alg, rng: random.Random):
    return alg.random_element(rng)


def _matrix_source(alg, rng: random.Random) -> RatMatrix:
    dim = alg.one.dim
    return RatMatrix.unit(dim, 1, 2) + RatMatrix.unit(dim, 2, 1)


def _standard_operand(alg, rng: random.Random):
    # c*1 + d*e_k with e_k the indicator of one slot: the basis spans only the
    # scalar windows, so these operands reach no letter and do not cover the
    # multilinear identities on the whole carrier. Dense elements would inflate
    # the n-fold products. The draws are those of rng.choice and
    # rng.randrange(1, len(alg.basis)).
    c = (-2, -1, 1, 2)[randint(rng, 0, 3)]
    d = (-2, -1, 1, 2, 3)[randint(rng, 0, 4)]
    return c * alg.one + d * alg.basis[randint(rng, 1, len(alg.basis) - 1)]


@dataclass(frozen=True)
class _Model:
    """A carrier factory, its canonical source and its sparse random operand.

    Sources and operands take (alg, rng), where alg may be the factory's
    carrier rescaled by --weight. `pick` is the --model value that selects
    the carrier when it is not the registry key.
    """

    make: Callable
    source: Callable
    operand: Callable = _random
    pick: str | None = None


_MODELS = {
    "standard-comm": _Model(
        lambda cfg: commutative_standard_algebra(cfg.window),
        lambda alg, rng: alg.one + alg.basis[1],
        _standard_operand,
    ),
    "standard-nc": _Model(
        lambda cfg: noncommutative_standard_algebra(cfg.window),
        lambda alg, rng: alg.one + alg.basis[1],
        _standard_operand,
    ),
    "laurent": _Model(
        lambda cfg: laurent_algebra(max(12, 4 * cfg.order), max(12, 4 * cfg.order)),
        lambda alg, rng: _laurent(alg, {-1: 1, 0: 1}),
        lambda alg, rng: alg.zero.draw(rng, range(-2, 3)),
    ),
    "matrix": _Model(lambda cfg: matrix_algebra(cfg.dim), _matrix_source),
    "matrix2": _Model(lambda cfg: matrix_algebra(2), _matrix_source, pick="matrix"),
    "integration": _Model(
        lambda cfg: integration_algebra(max(24, 4 * (cfg.order + 1))),
        lambda alg, rng: alg.basis[1],
    ),
    "summation": _Model(lambda cfg: summation_algebra(cfg.window), _random),
}
MODELS = tuple(dict.fromkeys(m.pick or key for key, m in _MODELS.items()))
_ALL = tuple(_MODELS)  # every carrier


def default_models(cfg: SuiteConfig) -> dict:
    """Instantiate every carrier, sized so suite internals cannot overflow.

    Keys whose carriers coincide share one (at --dim 2, "matrix" is "matrix2"),
    so that a suite runs it once.
    """
    registry, by_name = {}, {}
    for key, model in _MODELS.items():
        alg = model.make(cfg)
        registry[key] = by_name.setdefault(alg.name, alg)
    return registry


def _sources(cfg: SuiteConfig, key: str, alg, count: int) -> list:
    """Deterministic sample elements of a model, its canonical source first.

    Standard-model samples are c*1 + d*e_k with e_k the indicator of one slot,
    so every slot holds a constant and no sample carries a letter. The full
    generator would make order-6 towers explode combinatorially.
    """
    model, rng = _MODELS[key], random.Random(cfg.seed)
    return [model.source(alg, rng)] + [model.operand(alg, rng) for _ in range(count - 1)]


# ---------------------------------------------------------------------------
# suite table

_SUITE_TABLE = {}  # suite -> callable (cfg, registry, picked) returning its checks
_SUITE_MODELS = {}  # suite -> (models --model may pick, whether --weight applies)


def _suite(name: str, models: tuple = (), any_weight: bool = True):
    """Register fn(cfg, registry, picked) as a suite, where picked holds the
    (model key, carrier) pairs `_select` chose for it from `models`."""

    def register(fn):
        _SUITE_MODELS[name] = (models, any_weight)
        _SUITE_TABLE[name] = fn
        return fn

    return register


def _select(cfg: SuiteConfig, registry: dict, suite: str) -> list:
    """The (model key, carrier) pairs a suite runs on, after --model and --weight."""
    keys, any_weight = _SUITE_MODELS[suite]
    if cfg.model is not None:
        picks = [_MODELS[key].pick or key for key in keys]
        if cfg.model not in picks:
            takes = ", ".join(dict.fromkeys(picks)) or "none"
            raise ConfigError(
                f"suite {suite} does not take --model {cfg.model} (it takes: {takes})"
            )
        keys = [key for key, pick in zip(keys, picks) if pick == cfg.model]
    picked = []
    for key in keys:
        if all(registry[key] is not alg for _, alg in picked):  # two keys, one carrier
            picked.append((key, registry[key]))
    if cfg.weight is None:
        return picked
    if not any_weight:
        raise ConfigError(
            f"suite {suite} checks identities of a fixed weight and takes no --weight"
        )
    # a weight-0 carrier has no weight to rescale: skip it, unless nothing is left
    scaled = [
        (key, alg.rescaled(cfg.weight / alg.weight)) for key, alg in picked if alg.weight != 0
    ]
    if not scaled:
        names = ", ".join(alg.name for _, alg in picked)
        raise ConfigError(f"suite {suite} cannot rescale weight-0 model {names}")
    return scaled


def _plans(cfg: SuiteConfig):
    return SamplePlan("exhaustive"), SamplePlan("random", cfg.trials, cfg.seed)


def _triple_plan(rnd: SamplePlan) -> SamplePlan:
    # laws quantified over triples cost ~10x a pair check per sample; the
    # copy reads the random plan's stream, so its samples are a prefix
    return replace(rnd, trials=min(rnd.trials, 60))


def _tag(check: CheckResult, suffix: str) -> CheckResult:
    return replace(check, name=f"{check.name}/{suffix}")


_E12 = TensorR(((RatMatrix.unit(2, 1, 2), RatMatrix.unit(2, 1, 2)),))  # nilpotent: solves the AYBE
_E11 = TensorR(((RatMatrix.unit(2, 1, 1), RatMatrix.unit(2, 1, 1)),))  # a known non-solution


@_suite("rb-laws", _ALL)
def _suite_rb_laws(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    checks = []
    ex, rnd = _plans(cfg)
    small = _triple_plan(rnd)
    for _, alg in picked:
        checks.append(check_rb_law(alg, ex))
        checks.append(_tag(check_rb_law(alg, rnd), "seeded"))
        checks.append(check_linearity(alg, small))
        checks.append(check_double_assoc_and_hom(alg, small))
        if alg.weight != 0:
            checks.append(check_weight_rescale(alg, Fraction(2), small))
    return checks


def _product_laws(mul, words: list, small: list) -> str | None:
    """Commutativity of a word product on the pairs of `words`, then
    associativity of its bilinear extension on the triples of `small`."""

    def comm(u, v):
        yield "comm", mul(u, v), mul(v, u)

    def assoc(u, v, w):
        lhs = bilinear(mul, mul(u, v), NCPoly.from_word(w))
        yield "assoc", lhs, bilinear(mul, NCPoly.from_word(u), mul(v, w))

    pairs, triples = itertools.product(words, repeat=2), itertools.product(small, repeat=3)
    return first_failure("words", list(pairs), comm, "uv") or first_failure(
        "words", list(triples), assoc, "uvw"
    )


def _word_check(name: str, anchor: str, samples: list, laws, names) -> CheckResult:
    """A check of laws on words in the free model, rendered as `model=words`."""
    return CheckResult.of(name, anchor, first_failure("words", samples, laws, names))


@_suite("shuffle", any_weight=False)
def _suite_shuffle(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    anchor = "Eq. (shuffle)"
    u, v = Word((1, 2, 3, 4)), Word((5, 6, 7))

    def cardinality(u, v):
        yield "cardinality", len(shuffle(u, v)), math.comb(len(u) + len(v), len(u))

    def membership(w, member):
        yield "membership", is_shuffle_of(w, u, v), member

    # half-shuffle axioms in the weight-0 free model
    def half_products(a, b, c):
        yield "flip", shuffle_lower(a, b), shuffle_upper(b, a)
        inner = shuffle_upper(b, c) + shuffle_upper(c, b)
        lhs = bilinear(shuffle_upper, shuffle_upper(a, b), NCPoly.from_word(c))
        yield "upper assoc", lhs, bilinear(shuffle_upper, NCPoly.from_word(a), inner)
        yield "recombine", shuffle_upper(a, b) + shuffle_lower(a, b), shuffle_sum(a, b)

    blocks = [
        (Word(range(1, i + 1)), Word(range(i + 1, i + j + 1)))
        for i, j in itertools.product(range(5), repeat=2)
    ]
    members = [(Word((1, 5, 2, 6, 7, 3, 4)), True), (Word((1, 4, 2, 5, 6, 3, 7)), False)]
    words = [Word((1,)), Word((2,)), Word((1, 2)), Word((3, 1))]
    triples = [(Word((1,)), Word((2,)), Word((3,))), (Word((1, 2)), Word((3,)), Word((4,)))]
    return [
        _word_check("shuffle/cardinality", anchor, blocks, cardinality, "uv"),
        _word_check("shuffle/membership", anchor, members, membership, ["w", "member"]),
        CheckResult.of("shuffle/product-laws", anchor, _product_laws(shuffle_sum, words, words)),
        _word_check("shuffle/half-products", "Eq. (demishuffle0)", triples, half_products, "abc"),
    ]


@_suite("quasi-shuffle", ("standard-comm",), any_weight=False)
def _suite_quasi_shuffle(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    anchor = "Eq. (demi-quasi-shuffle)"
    alpha = MonoidAlphabet(cfg.alphabet)
    qs = lambda u, v: quasi_shuffle(u, v, alpha)
    up = lambda u, v: quasi_shuffle_upper(u, v, alpha)
    small = [Word((1,)), Word((2,)), Word((1, 1))]

    def terms(*words):
        return lambda u, v: [("terms", qs(u, v), NCPoly({Word(w): 1 for w in words}))]

    # half products: down is the flip of up; up against up+down+merge associates
    def half_products(x, y, z):
        yield "flip", quasi_shuffle_lower(x, y, alpha), up(y, x)
        inner = up(y, z) + up(z, y) + quasi_shuffle_merge(y, z, alpha)
        lhs = bilinear(up, up(x, y), NCPoly.from_word(z))
        yield "upper assoc", lhs, bilinear(up, NCPoly.from_word(x), inner)

    # dropping the merge branch of the recursion must land on the plain shuffle
    def merge_free(u, v):
        yield "merge-free", _shuffle_by_recursion(u, v), shuffle_sum(u, v)

    # nested-sum realization: encoding is multiplicative
    (_, alg), = picked
    gen = standard_generator(len(alg.one.num), "comm")

    def nested_sums(u, v):
        lhs = nested_sum_encoding(alg, gen, u) * nested_sum_encoding(alg, gen, v)
        yield "encoding-multiplicative", lhs, nested_sum_encoding_sum(alg, gen, qs(u, v))

    pairs = [((1,), (1,)), ((1,), (2,)), ((2,), (3,)), ((1, 2), (1,)), ((1, 1), (2, 1))]
    single = terms((1, 2), (2, 1), (3,))
    five = terms((1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 3), (2, 4))
    x1, x2 = Word((1,)), Word((2,))
    words = list(alpha.words(2))[:12]
    triples = [(x1, x2, x1), (Word((2, 1)), x1, Word((3,)))]
    small_pairs = list(itertools.product(small, repeat=2))
    encoded = first_failure(alg.name, [(Word(u), Word(v)) for u, v in pairs], nested_sums, "uv")
    return [
        CheckResult.of("quasi-shuffle/nested-sums", "Eq. (shuffle)", encoded),
        _word_check("quasi-shuffle/single-letters", anchor, [(x1, x2)], single, "uv"),
        _word_check("quasi-shuffle/five-term", anchor, [(x1, Word((2, 3)))], five, "uv"),
        CheckResult.of("quasi-shuffle/product-laws", anchor, _product_laws(qs, words, small)),
        _word_check("quasi-shuffle/half-products", anchor, triples, half_products, "xyz"),
        _word_check("quasi-shuffle/merge-free", "Eq. (shuffle)", small_pairs, merge_free, "uv"),
    ]


def _shuffle_by_recursion(u: Word, v: Word) -> NCPoly:
    """Hoffman recursion with the merge branch removed."""
    if not len(u):
        return NCPoly.from_word(v)
    if not len(v):
        return NCPoly.from_word(u)
    a, b = u.letters[0], v.letters[0]
    ut, vt = Word(u.letters[1:]), Word(v.letters[1:])
    return _prefixed(a, _shuffle_by_recursion(ut, v)) + _prefixed(b, _shuffle_by_recursion(u, vt))


@_suite("dendriform", ("integration",), any_weight=False)
def _suite_dendriform(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    ex, rnd = _plans(cfg)
    checks = []
    for alg in [alg for _, alg in picked] + [tensor_rb_algebra(_E12)]:
        checks.append(check_dendriform(alg, ex))
        checks.append(_tag(check_dendriform(alg, rnd), "seeded"))
    return checks


@_suite("prelie", ("matrix", "standard-comm", "standard-nc", "laurent", "integration", "summation"))
def _suite_prelie(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    small = _triple_plan(_plans(cfg)[1])
    return [check_prelie_axiom(alg, small) for _, alg in picked] + [check_vector_field_prelie(4)]


@_suite("spitzer", ("standard-comm", "integration", "summation", "laurent"))
def _suite_spitzer(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    return [
        _tag(spitzer_check_commutative(alg, x, cfg.order), f"x{i}")
        for key, alg in picked
        for i, x in enumerate(_sources(cfg, key, alg, 3))
    ]


@_suite("nc-spitzer", ("matrix", "matrix2", "standard-nc", "standard-comm"))
def _suite_nc_spitzer(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    return [
        _tag(check_nc_spitzer(alg, x, cfg.order), f"x{i}")
        for key, alg in picked
        for i, x in enumerate(_sources(cfg, key, alg, 3 if key in ("matrix", "matrix2") else 1))
    ]


def _magnus_expected(alg, x) -> dict:
    """Grades 2..4 of the Magnus series, written out as pre-Lie chains.

    The grade-4 sums are (3A + B + C + D) / 24 and (2A + B) / 12, with
    A = (xx|>x)|>x, B = x|>(xx|>x), C = (x|>xx)|>x and D = xx|>xx. C and D
    are built inside their sum, so the two are never alive at once (peak RSS).
    """
    p = lambda a, b: prelie_left(alg, a, b)
    xx = p(x, x)
    xx_x, x_xx = p(xx, x), p(x, xx)
    a, b = p(xx_x, x), p(x, xx_x)
    return {
        2: Fraction(1, 2) * xx,
        3: Fraction(1, 4) * xx_x + Fraction(1, 12) * x_xx,
        "4-terms": Fraction(1, 24) * (3 * a + b + p(x_xx, x) + p(xx, xx)),
        "4-reduced": Fraction(1, 12) * (2 * a + b),
    }


@_suite("magnus", ("standard-nc",))
def _suite_magnus(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    """Coefficients of the Magnus recursion in the word-sequence model, at N = 4.

    The lambda^4 oracle is the pre-Lie reduction of the recursion's own four
    chains; the commutative closed form theta^{-1} log(1 + theta F) fixes all
    signs (the spitzer suite re-verifies that closed form independently).
    """
    (_, alg), = picked
    x = standard_generator(len(alg.one.num), "nc")
    omega = prelie_magnus(alg, x, 4).omega
    expected = _magnus_expected(alg, x)
    checks = []
    for grade, key in ((2, 2), (3, 3), (4, "4-terms"), (4, "4-reduced")):
        name = f"magnus/lambda{grade}" + ("/reduced" if key == "4-reduced" else "")
        laws = lambda x: [(f"omega grade {key}", omega.coefficient(grade), expected[key])]
        bad = first_failure(alg.name, [(x,)], laws, "x")
        checks.append(CheckResult.of(name, "Eq. (pLMag)", bad))
    return checks


@_suite("bohnenblust-spitzer", ("standard-comm", "standard-nc", "matrix", "integration"))
def _suite_bohnenblust_spitzer(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    checks = []
    for key, alg in picked:
        targets = [alg]
        if key == "standard-nc" and cfg.weight is None:
            targets.append(alg.rescaled(Fraction(2, 3) / alg.weight))
        for target in targets:
            rng, operand = random.Random(cfg.seed), _MODELS[key].operand
            by_arity = [
                check_bohnenblust_spitzer(target, tuple(operand(target, rng) for _ in range(n)))
                for n in range(2, cfg.bs_arity + 1)
            ]
            checks += itertools.chain.from_iterable(zip(*by_arity))  # each form over all arities
    return checks


@_suite("atkinson", _ALL)
def _suite_atkinson(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    checks = []
    _, rnd = _plans(cfg)
    for key, alg in picked:
        lemma = atkinson_lemma(alg, rnd)  # does not involve the source: once per carrier
        for i, x in enumerate(_sources(cfg, key, alg, 2)):
            checks.append(_tag(check_atkinson(alg, x, cfg.order, lemma), f"x{i}"))
    return checks


@_suite("bogoliubov", ("laurent",))
def _suite_bogoliubov(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    (key, alg), = picked
    rng = random.Random(cfg.seed)
    order = min(cfg.order, 4)
    checks = []
    for i in range(20):
        coeffs = (alg.zero, *(_MODELS[key].operand(alg, rng) for _ in range(order)))
        checks.append(_tag(check_bogoliubov(alg, LambdaSeries(alg, coeffs)), f"x{i}"))
    # the displayed one-step example x1 = 1/eps + 1: f1 = -theta/eps, hinv1 = theta
    theta = alg.weight

    def one_step(x1):
        f, hinv = bogoliubov_decompose(alg, LambdaSeries(alg, (alg.zero, x1)))
        yield "f1=-theta/eps", f.coefficient(1), _laurent(alg, {-1: -theta})
        yield "hinv1=theta", hinv.coefficient(1), theta * alg.one

    bad = first_failure(alg.name, [(_laurent(alg, {-1: 1, 0: 1}),)], one_step, ["x1"])
    checks.append(CheckResult.of("bogoliubov/one-step", "Eq. (Atkins)", bad))
    return checks


@_suite("flows-bch", ("matrix", "matrix2"))
def _suite_flows_bch(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    checks = []
    bch_order = min(cfg.order, 3)
    law_order = min(cfg.order, 4)
    for _, alg in picked:
        dim = alg.one.dim
        units = [RatMatrix.unit(dim, i, j) for i in range(1, dim + 1) for j in range(1, dim + 1)]
        pairs = [(u, v) for u in units for v in units][: 16]
        pairs += SamplePlan("random", 20, cfg.seed).pairs(alg)
        for i, (x, y) in enumerate(pairs):
            checks.append(_tag(check_flows_bch(alg, x, y, bch_order), f"p{i}"))
            checks.append(_tag(check_flows_product_law(alg, x, y, law_order), f"p{i}"))
    return checks


@_suite("yang-baxter", _ALL)
def _suite_yang_baxter(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    ex, rnd = _plans(cfg)
    small = _triple_plan(rnd)
    checks = [check_modified_ybe(alg, small) for _, alg in picked]
    for mode in ("printed", "standard"):
        checks.append(_tag(aybe_check(_E12, mode), "E12"))
        rejected = lambda r: [("rejected", aybe_check(r, mode).status == "fail", True)]
        bad = first_failure("tensor-cube[2]", [(_E11,)], rejected, "r")
        checks.append(CheckResult.of(f"aybe/{mode}/E11-rejected", "Eq. (ag)", bad))
    induced = tensor_rb_algebra(_E12)
    checks.append(check_rb_law(induced, ex))
    checks.append(check_operator_ybe(induced, plan=ex))
    checks.append(_tag(check_operator_ybe(registry["integration"], plan=rnd), "abelian"))
    return checks


@_suite("standard-symmetric", ("summation",), any_weight=False)
def _suite_standard_symmetric(cfg: SuiteConfig, registry: dict, picked: list) -> list:
    window = cfg.window
    ks = sorted({min(3, window - 1), window // 2 + 1, window - 1})
    # grade n of the left fixed point of the generator is R^(n) of it, for both kinds
    comm = commutative_standard_algebra(window)
    gen = standard_generator(window, "comm")
    fixed = solve_fixed_point(comm, gen, SIDE_LEFT, 4)
    nc = noncommutative_standard_algebra(window)
    nc_fixed = solve_fixed_point(nc, standard_generator(window, "nc"), SIDE_LEFT, 4)
    checks = []
    for n in range(1, 5):
        power = comm.rb(gen**n)
        checks += [elementary_symmetric_check(n, k, fixed, nc_fixed, power) for k in ks]
    (_, alg), = picked
    rng = random.Random(cfg.seed)

    def difference_inverts_sum(s):
        yield "diff(R(s))=s", finite_difference(alg.rb(s)), SeqElement(s.entries[: window - 1])

    samples = [(alg.random_element(rng),) for _ in range(5)]
    bad = first_failure(alg.name, samples, difference_inverts_sum, "s")
    checks.append(CheckResult.of("standard-symmetric/difference-inverts-sum", "Eq. (shuffle)", bad))
    return checks


SUITES = tuple(_SUITE_TABLE)


def run_suite(cfg: SuiteConfig, models: dict | None = None) -> Report:
    started = time.monotonic()
    registry = default_models(cfg)
    if models:
        registry.update(models)
    names = SUITES if cfg.suite == "all" else (cfg.suite,)
    # every suite's picks first, so a bad --model or --weight is refused before any suite runs
    picks = {name: _select(cfg, registry, name) for name in names}
    checks = split_run(lambda: [c for n in names for c in _SUITE_TABLE[n](cfg, registry, picks[n])])
    elapsed_ms = int((time.monotonic() - started) * 1000)
    params = {key: getattr(cfg, key) for key in _KEYS if key not in ("format", "output")}
    params["weight"] = None if cfg.weight is None else str(cfg.weight)
    return Report(suite=cfg.suite, params=params, checks=tuple(checks), elapsed_ms=elapsed_ms)


def main(argv=None, models: dict | None = None) -> int:
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        report = run_suite(cfg, models)
        emit_report(report, cfg.format, cfg.output)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse's --help or usage error, already printed
        return exc.code
    return 0 if report.failed == 0 else 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
