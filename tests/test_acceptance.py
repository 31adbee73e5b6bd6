"""Acceptance gate: one test per shipped guarantee, exact arithmetic throughout.

Every check here compares Fractions for equality; the runtime bounds are part
of the guarantee and are asserted against a monotonic clock. Criterion 4 pins
the displayed grade-2..4 reduced forms of the Magnus expansion, stated in
rbx's sign convention (left pre-Lie product R(a)b - bR(a) - theta*ba and
B_1 = -1/2), where the commutative closed form theta^-1 log(1 + theta x) fixes
every sign.
"""

import hashlib
import json
import random
import time
from dataclasses import replace
from fractions import Fraction

from rbx import (
    RatMatrix,
    SuiteConfig,
    check_nc_spitzer,
    commutative_standard_algebra,
    integration_algebra,
    main,
    matrix_algebra,
    noncommutative_standard_algebra,
    prelie_left,
    prelie_magnus,
    run_suite,
    spitzer_check_commutative,
    standard_generator,
)


def _timed_suite(**kwargs):
    start = time.monotonic()
    report = run_suite(SuiteConfig(**kwargs))
    return report, time.monotonic() - start


def _assert_clean(report):
    bad = [c for c in report.checks if c.status != "pass"]
    assert not bad, f"{bad[0].name}: {bad[0].counterexample}"


def _names(report):
    return [c.name for c in report.checks]


def test_criterion_01_rb_laws_exhaustive_and_seeded():
    report, elapsed = _timed_suite(suite="rb-laws")
    assert elapsed < 5.0
    _assert_clean(report)
    names = _names(report)
    for model in ("matrix3", "matrix2", "standard-comm[W=10]", "standard-nc[W=10]"):
        assert f"rb-law/{model}/exhaustive" in names
        assert f"rb-law/{model}/random/seeded" in names
    assert any(n.startswith("rb-law/laurent[") and n.endswith("/exhaustive") for n in names)
    assert any(n.startswith("rb-law/integration[") and n.endswith("/exhaustive") for n in names)


def test_criterion_02_spitzer_commutative_order_five():
    start = time.monotonic()
    alg = commutative_standard_algebra(8, 6)
    rng = random.Random(42)
    results = [
        spitzer_check_commutative(alg, standard_generator(8, 6), 5),
        spitzer_check_commutative(alg, alg.one + alg.basis[1], 5),
        spitzer_check_commutative(alg, alg.random_element(rng), 5),
    ]
    intg = integration_algebra()
    results += [
        spitzer_check_commutative(intg, intg.basis[1], 5),
        spitzer_check_commutative(intg, intg.random_element(rng), 5),
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    for res in results:
        assert res.status == "pass", res.counterexample


def test_criterion_03_noncommutative_spitzer_order_four():
    start = time.monotonic()
    alg = matrix_algebra(3)
    sources = [RatMatrix.unit(3, 1, 2) + RatMatrix.unit(3, 2, 1)]
    rng = random.Random(42)
    sources += [alg.random_element(rng) for _ in range(50)]
    results = [check_nc_spitzer(alg, x, 4) for x in sources]
    seq = noncommutative_standard_algebra(10, 8)
    results.append(check_nc_spitzer(seq, seq.one + seq.basis[1], 4))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    for res in results:
        assert res.status == "pass", res.counterexample


def test_criterion_04_magnus_displayed_coefficients():
    # a small window keeps the rendered counterexample readable; the claim
    # is symbolic in the generator, so the window size carries no content
    start = time.monotonic()
    alg = noncommutative_standard_algebra(4, 8)
    x = standard_generator(4, 8, "nc")
    omega = prelie_magnus(alg, x, 4).omega
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    p = lambda a, b: prelie_left(alg, a, b)
    xx = p(x, x)
    assert omega.coefficient(2) == Fraction(1, 2) * xx
    assert omega.coefficient(3) == Fraction(1, 4) * p(xx, x) + Fraction(1, 12) * p(x, xx)
    displayed = Fraction(1, 6) * p(p(xx, x), x) + Fraction(1, 12) * p(x, p(xx, x))
    assert omega.coefficient(4) == displayed, (
        "grade-4 coefficient differs from the displayed reduced form "
        "(+1/6, +1/12), stated in rbx's sign convention"
    )


def test_criterion_05_bohnenblust_spitzer_to_arity_five():
    report, elapsed = _timed_suite(suite="bohnenblust-spitzer", bs_arity=5)
    assert elapsed < 60.0
    _assert_clean(report)
    names = _names(report)
    for n in (2, 3, 4, 5):
        assert f"bohnenblust-spitzer/standard-comm[W=10]/n={n}/commutative-partitions" in names
        assert f"bohnenblust-spitzer/matrix3/n={n}/cycles-prelie" in names
        assert f"bohnenblust-spitzer/standard-nc[W=10]/n={n}/cycles-prelie" in names
        assert f"bohnenblust-spitzer/standard-nc[W=10]*[beta=2/3]/n={n}/cycles-prelie" in names
        assert f"bohnenblust-spitzer/integration[cap=28]/n={n}/weight-zero" in names


def test_criterion_06_atkinson_order_five():
    report, elapsed = _timed_suite(suite="atkinson", order=5)
    assert elapsed < 10.0
    _assert_clean(report)
    names = _names(report)
    for model in ("matrix3", "standard-comm[W=10]", "standard-nc[W=10]", "summation[W=10]"):
        assert f"atkinson/{model}/N=5/x0" in names
    assert any(n.startswith("atkinson/laurent[") for n in names)
    assert any(n.startswith("atkinson/integration[") for n in names)


def test_criterion_07_bogoliubov_twenty_seeded_inputs():
    report, elapsed = _timed_suite(suite="bogoliubov")
    assert elapsed < 5.0
    _assert_clean(report)
    names = _names(report)
    seeded = [n for n in names if "/x" in n and n.startswith("bogoliubov/laurent")]
    assert len(seeded) == 20
    assert "bogoliubov/one-step" in names


def test_criterion_08_flows_bch_correspondence():
    report, elapsed = _timed_suite(suite="flows-bch")
    assert elapsed < 30.0
    _assert_clean(report)
    names = _names(report)
    bch = [n for n in names if n.startswith("flows-bch/matrix3/N=3/")]
    law = [n for n in names if n.startswith("flows-product/matrix3/N=4/")]
    assert len(bch) == 36  # 16 unit pairs + 20 random pairs
    assert len(law) == 36


def test_criterion_09_splitting_axioms_and_quasi_shuffle():
    start = time.monotonic()
    reports = [
        run_suite(SuiteConfig(suite=name))
        for name in ("shuffle", "quasi-shuffle", "dendriform", "prelie")
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    for report in reports:
        _assert_clean(report)
    checks = [c for report in reports for c in report.checks]
    names = [c.name for c in checks]
    assert "quasi-shuffle/single-letters" in names
    assert "quasi-shuffle/five-term" in names
    anchors = {c.anchor for c in checks}
    for anchor in (
        "Eq. (demishuffle0)",
        "Eq. (demi-quasi-shuffle)",
        "Eq. (demishuffleNC)",
        "Eq. (pLidentity)",
    ):
        assert anchor in anchors


def test_criterion_10_yang_baxter_relations():
    report, elapsed = _timed_suite(suite="yang-baxter")
    assert elapsed < 10.0
    _assert_clean(report)
    names = _names(report)
    for model in ("matrix3", "matrix2", "standard-comm[W=10]", "standard-nc[W=10]", "summation[W=10]"):
        assert f"modified-ybe/{model}/random" in names
    for mode in ("printed", "standard"):
        assert f"aybe/{mode}/dim=2/E12" in names
        assert f"aybe/{mode}/E11-rejected" in names
    assert "rb-law/tensor-rb[2]/exhaustive" in names
    assert "operator-ybe/tensor-rb[2]/exhaustive" in names
    assert any(n.startswith("operator-ybe/integration[") for n in names)


def _corrupt_projection(m: RatMatrix) -> RatMatrix:
    # keeps one entry below the diagonal whose row and column both cross it
    return RatMatrix(
        [
            [v if i <= j or (i, j) == (2, 0) else 0 for j, v in enumerate(row)]
            for i, row in enumerate(m.rows)
        ]
    )


def test_criterion_11_negative_control(capsys):
    bad = replace(matrix_algebra(3), rb=_corrupt_projection)
    rc = main(
        ["verify", "--suite", "rb-laws", "--model", "matrix", "--format", "json"],
        models={"matrix": bad},
    )
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["failed"] > 0
    failing = [c for c in payload["checks"] if c["status"] == "fail"]
    assert failing
    for check in failing:
        assert check["counterexample"]
    assert any("lhs=" in c["counterexample"] for c in failing)


# sha256 of the seed-42 `--suite all` body (sorted keys, elapsed_ms removed):
# the regression oracle. A change meant to alter results updates it and says so.
ALL_SEED_42_SHA256 = "dda65ddf53b344be7a8292c4d6ca4a6a6fb36f38ea262e4bb79519f6b5a76c75"


def test_criterion_12_byte_identical_reports(capsys):
    argv = ["verify", "--suite", "all", "--seed", "42", "--format", "json"]

    def one_run() -> tuple:
        rc = main(argv)
        payload = json.loads(capsys.readouterr().out)
        elapsed = payload.pop("elapsed_ms")
        return rc, json.dumps(payload, sort_keys=True), elapsed

    rc1, body1, _ = one_run()
    rc2, body2, _ = one_run()
    assert rc1 == rc2 == 0
    assert body1.encode() == body2.encode()
    assert hashlib.sha256(body1.encode()).hexdigest() == ALL_SEED_42_SHA256
