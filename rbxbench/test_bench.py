"""Tests of the benchmark itself: every correctness check can fail.

    python3 -m unittest discover -s rbxbench -p 'test_*.py'
"""

import json
import math
import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import PROBES, WORKLOADS  # noqa: E402


def report(statuses: dict, elapsed: int = 12) -> str:
    """A report in the layout rbx writes, with the given check statuses."""
    payload = {
        "suite": "rb-laws",
        "params": {"seed": 42},
        "checks": [{"name": n, "status": s, "anchor": "Eq. (RBR)", "counterexample": ""}
                   for n, s in sorted(statuses.items())],
        "passed": sum(s == "pass" for s in statuses.values()),
        "failed": sum(s == "fail" for s in statuses.values()),
        "elapsed_ms": elapsed,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


GOOD = report({"rb-law/matrix3/exhaustive": "pass", "rb-law/matrix2/exhaustive": "pass"})


class TestReportChecks(unittest.TestCase):
    def test_passing_report_is_accepted(self):
        self.assertEqual(checks.report_problems(GOOD, 0), [])

    def test_a_fail_is_caught(self):
        text = report({"rb-law/matrix3/exhaustive": "fail", "rb-law/matrix2/exhaustive": "pass"})
        self.assertTrue(checks.report_problems(text, 0))
        self.assertTrue(checks.report_problems(text, 1))

    def test_statuses_and_summary_are_each_checked(self):
        lying = json.loads(report({"rb-law/matrix3/exhaustive": "fail"}))
        lying["failed"], lying["passed"] = 0, 1
        self.assertTrue(checks.report_problems(json.dumps(lying), 0))
        miscounted = json.loads(GOOD)
        miscounted["failed"] = 1
        self.assertTrue(checks.report_problems(json.dumps(miscounted), 0))

    def test_nonzero_exit_missing_report_and_empty_report_are_caught(self):
        self.assertTrue(checks.report_problems(GOOD, 2))
        self.assertTrue(checks.report_problems(GOOD, "ValueError: boom"))
        self.assertTrue(checks.report_problems(None, 0))
        self.assertTrue(checks.report_problems(report({}), 0))
        self.assertTrue(checks.report_problems("{not json", 0))

    def test_reports_differing_only_in_elapsed_ms_are_the_same(self):
        self.assertEqual(checks.same_report_problems(GOOD, report(
            {"rb-law/matrix3/exhaustive": "pass", "rb-law/matrix2/exhaustive": "pass"}, elapsed=9999)), [])

    def test_one_changed_byte_is_caught(self):
        changed = GOOD.replace("matrix2", "matrix4")
        self.assertEqual(len(changed), len(GOOD))
        self.assertTrue(checks.same_report_problems(GOOD, changed))
        self.assertTrue(checks.same_report_problems(GOOD, GOOD + " "))

    def test_a_report_without_elapsed_ms_is_caught(self):
        self.assertTrue(checks.same_report_problems(GOOD, GOOD.replace('  "elapsed_ms": 12,\n', "")))


class TestProbeChecks(unittest.TestCase):
    MUST = ("rb-law/matrix3/",)

    def test_caught_probe_is_accepted(self):
        text = report({"rb-law/matrix3/exhaustive": "fail", "rb-law/matrix3/random/seeded": "fail",
                       "rb-law/matrix2/exhaustive": "pass", "rb-linear/matrix3/random": "pass"})
        self.assertEqual(checks.probe_problems(text, 1, self.MUST), [])

    def test_probe_exit_code_is_checked(self):
        text = report({"rb-law/matrix3/exhaustive": "fail"})
        self.assertTrue(checks.probe_problems(text, 0, self.MUST))
        self.assertTrue(checks.probe_problems(text, 2, self.MUST))

    def test_probe_that_passes_is_caught(self):
        self.assertTrue(checks.probe_problems(GOOD, 0, self.MUST))
        self.assertTrue(checks.probe_problems(GOOD, 1, self.MUST))

    def test_one_required_check_passing_is_caught(self):
        text = report({"rb-law/matrix3/exhaustive": "fail", "rb-law/matrix3/random/seeded": "pass"})
        self.assertTrue(checks.probe_problems(text, 1, self.MUST))

    def test_required_check_missing_is_caught(self):
        text = report({"rb-law/matrix2/exhaustive": "fail"})
        self.assertTrue(checks.probe_problems(text, 1, self.MUST))

    def test_failure_off_the_broken_carrier_is_caught(self):
        text = report({"rb-law/matrix3/exhaustive": "fail", "rb-law/matrix2/exhaustive": "fail"})
        self.assertTrue(checks.probe_problems(text, 1, self.MUST))

    def test_every_workload_has_a_probe(self):
        self.assertEqual(set(PROBES), set(WORKLOADS))


class TestRecomputedValues(unittest.TestCase):
    def closed_form(self, x, theta, order):
        return [[Fraction(0)] * len(x)] + [
            [(-theta) ** (n - 1) * v**n / n for v in x] for n in range(1, order + 1)
        ]

    def test_magnus_closed_form(self):
        x = [Fraction(3, 2), Fraction(-1), Fraction(0)]
        omega = self.closed_form(x, Fraction(1), 8)
        self.assertEqual(checks.magnus_problems(omega, x, Fraction(1)), [])
        omega[4][0] = -omega[4][0]  # the sign flip of an odd-length chain
        self.assertTrue(checks.magnus_problems(omega, x, Fraction(1)))
        omega = self.closed_form(x, Fraction(1), 8)
        omega[0][1] = Fraction(1)
        self.assertTrue(checks.magnus_problems(omega, x, Fraction(1)))

    def test_akiyama_tanigawa_gives_the_known_numbers(self):
        known = [1, Fraction(1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42), 0,
                 Fraction(-1, 30)]
        self.assertEqual([checks.akiyama_tanigawa(n) for n in range(9)], known)

    def test_bernoulli_convention_and_a_wrong_value(self):
        right = [checks.akiyama_tanigawa(n) * (-1 if n == 1 else 1) for n in range(9)]
        self.assertEqual(checks.bernoulli_problems(right), [])
        self.assertTrue(checks.bernoulli_problems([Fraction(1), Fraction(1, 2)] + right[2:]))
        self.assertTrue(checks.bernoulli_problems(right[:8] + [Fraction(1, 30)]))

    def test_bell_and_delannoy(self):
        self.assertEqual([checks.bell(n) for n in range(1, 7)], [1, 2, 5, 15, 52, 203])
        self.assertEqual([checks.delannoy(2, j) for j in range(4)], [1, 5, 13, 25])
        self.assertEqual(checks.delannoy(3, 3), 63)

    def test_combinat_counts(self):
        pairs = [((1,), (2, 3)), ((), (4,)), ((1, 1, 2), (5, 6, 7))]
        right = (math.factorial, checks.bell, lambda u, v: math.comb(len(u) + len(v), len(u)),
                 lambda u, v: checks.delannoy(len(u), len(v)))
        self.assertEqual(checks.combinat_problems(*right, pairs, n_max=6), [])
        for k in range(4):
            wrong = list(right)
            wrong[k] = (lambda f: lambda *a: f(*a) + 1)(right[k])
            self.assertTrue(checks.combinat_problems(*wrong, pairs, n_max=6), k)


class TestTracer(unittest.TestCase):
    def run_traced(self):
        from rbx.cli import main

        t = tracer.Tracer()
        t.install()
        try:
            rc = main(["verify", "--suite", "rb-laws", "--model", "matrix", "--trials", "5",
                       "--format", "json", "--output", os.devnull])
        finally:
            t.uninstall()
        self.assertEqual(rc, 0)
        return t

    def test_counts_repeat_and_originals_come_back(self):
        from rbx import cli, models, polynomials

        before = (models.RatMatrix.__mul__, polynomials.NCPoly.__mul__, cli.check_rb_law,
                  dict(cli._SUITE_TABLE), models.triangular_projection)
        first, second = self.run_traced().metrics(), self.run_traced().metrics()
        after = (models.RatMatrix.__mul__, polynomials.NCPoly.__mul__, cli.check_rb_law,
                 dict(cli._SUITE_TABLE), models.triangular_projection)
        self.assertEqual(before, after)
        self.assertGreater(first["models.matrix.mul_calls"], 0)
        self.assertGreater(first["models.matrix.R_calls"], 0)
        self.assertGreater(first["cli.suite_s.rb-laws"], first["algebra.check_s.check_rb_law"])
        self.assertEqual(first["models.summation.mul_calls"], 0)
        calls = lambda m: {k: v for k, v in m.items() if k.endswith("_calls")}  # noqa: E731
        self.assertEqual(calls(first), calls(second))

    def test_exact_counts_of_one_check(self):
        from rbx import algebra, models

        t = tracer.Tracer()
        t.install()
        try:
            alg = models.matrix_algebra(2)  # built after install, so R is the wrapped one
            result = algebra.check_rb_law(alg, algebra.SamplePlan("exhaustive"))
        finally:
            t.uninstall()
        self.assertEqual(result.status, "pass")
        m = t.metrics()
        # 16 basis pairs; per pair R(x), R(y), R(star) and four carrier products
        self.assertEqual(m["models.matrix.R_calls"], 48)
        self.assertEqual(m["models.matrix.mul_calls"], 64)
        self.assertEqual(t.aggs["algebra.check_rb_law"][0], 1)
        self.assertEqual([s["check"] for s in t.spans], ["rb-law/matrix2/exhaustive"])

    def test_benchmark_json_lists_every_metric(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(set(per_layer), set(tracer.METRICS) | {"trace.overhead_s"})
        self.assertEqual(per_layer, {name: tracer.unit(name) for name in per_layer})
        self.assertEqual(per_layer["cli.suite_s.rb-laws"], "s")
        self.assertEqual(per_layer["polynomials.cpoly.terms_out"], "count")
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, {"setup_s", "verify_s", "peak_rss_mb"})


if __name__ == "__main__":
    unittest.main()
