"""Derived structure of a weighted Rota-Baxter operator."""

import hashlib
import itertools
import os
import random
import signal
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

from rbx import algebra, cli, combinat, identities, models, yangbaxter
from rbx.algebra import (
    CUT,
    SamplePlan,
    b_operator,
    check_double_assoc_and_hom,
    check_linearity,
    check_prelie_axiom,
    check_rb_law,
    check_weight_rescale,
    double_product,
    first_failure,
    prelie_left,
    tilde_operator,
)
from rbx.cli import SuiteConfig, default_models
from rbx.errors import ConfigError
from rbx.identities import (
    atkinson_lemma,
    check_atkinson,
    check_bogoliubov,
    check_bohnenblust_spitzer,
    check_flows_bch,
    check_flows_product_law,
    check_nc_spitzer,
    spitzer_check_commutative,
)
from rbx.models import (
    RatMatrix,
    integration_algebra,
    laurent_algebra,
    matrix_algebra,
    summation_algebra,
)
from rbx.polynomials import NCPoly
from rbx.report import CheckResult
from rbx.series import LambdaSeries
from rbx.yangbaxter import (
    TensorR,
    aybe_check,
    check_dendriform,
    check_modified_ybe,
    check_operator_ybe,
)

EX = SamplePlan("exhaustive")
M3 = matrix_algebra(3)
E = lambda i, j: RatMatrix.unit(3, i, j)


class TestSamplePlan:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SamplePlan("all-of-them")

    def test_random_plan_refuses_an_empty_sample(self):
        for trials in (0, -1):
            with pytest.raises(ValueError):
                SamplePlan("random", trials=trials)
        assert SamplePlan("exhaustive", trials=0).pairs(matrix_algebra(2))

    def test_exhaustive_counts(self):
        alg = matrix_algebra(2)
        assert len(EX.pairs(alg)) == 16
        assert len(EX.triples(alg)) == 64

    def test_random_is_seeded(self):
        alg = summation_algebra(5)
        plan = SamplePlan("random", trials=7, seed=11)
        assert plan.pairs(alg) == plan.pairs(alg)
        assert plan.triples(alg) == plan.triples(alg)

    def test_a_shared_stream_draws_what_fresh_generators_draw(self):
        # every call order of the samples of a plan and of its copy at 2 trials, on every
        # registry carrier in turn and again after switching back, against a
        # fresh random.Random(seed) per call
        registry = list(default_models(SuiteConfig()).values())
        arity = {"pairs": 2, "triples": 3}
        fresh = {}
        for alg in registry:
            for trials, call in itertools.product((5, 2), arity):
                rng = random.Random(3)
                fresh[alg.name, trials, call] = [
                    tuple(alg.random_element(rng) for _ in range(arity[call]))
                    for _ in range(trials)
                ]
        calls = [(0, "pairs"), (0, "triples"), (1, "pairs"), (1, "triples")]
        for order in itertools.permutations(calls):
            plan = SamplePlan("random", trials=5, seed=3)
            plans = (plan, replace(plan, trials=2))
            for alg in registry + registry[::-1]:
                for which, call in order:
                    got = getattr(plans[which], call)(alg)
                    assert got == fresh[alg.name, plans[which].trials, call]
        # a plan replaced at another seed shares the stream but not its draws
        alg, rng = registry[0], random.Random(4)
        draws = [alg.random_element(rng) for _ in range(10)]
        assert replace(plan, seed=4).pairs(alg) == list(zip(draws[::2], draws[1::2]))


class TestDoubleProduct:
    def test_law_checks_pass_exhaustively(self):
        # triple double-products stack three basis poles, so size the bounds up
        for alg in (matrix_algebra(2), laurent_algebra(12, 12), summation_algebra(6)):
            assert check_rb_law(alg, EX).status == "pass"
            assert check_linearity(alg, EX).status == "pass"
            assert check_double_assoc_and_hom(alg, EX).status == "pass"

    def test_half_shuffles_recombine(self):
        for x in M3.basis[:4]:
            for y in M3.basis[:4]:
                up, down = x * M3.rb(y), M3.rb(x) * y
                assert up + down + M3.weight * (x * y) == double_product(M3, x, y)

    def test_integration_double_product_drops_weight_term(self):
        alg = integration_algebra()
        p, q = alg.basis[1], alg.basis[2]
        assert double_product(alg, p, q) == alg.rb(p) * q + p * alg.rb(q)


class TestTildeAndB:
    def test_tilde_complements_rb(self):
        for x in M3.basis:
            assert M3.rb(x) + tilde_operator(M3, x) == -(M3.weight * x)

    def test_tilde_satisfies_the_same_law(self):
        for x, y in EX.pairs(M3):
            lhs = tilde_operator(M3, x) * tilde_operator(M3, y)
            rhs = tilde_operator(
                M3,
                tilde_operator(M3, x) * y + x * tilde_operator(M3, y) + M3.weight * (x * y),
            )
            assert lhs == rhs

    def test_b_operator_on_matrix_units(self):
        # theta = -1 here, so B = 2R - id: fixes the upper part, negates the rest
        assert b_operator(M3, E(1, 2)) == E(1, 2)
        assert b_operator(M3, E(2, 1)) == -E(2, 1)
        assert b_operator(M3, E(1, 2)) * b_operator(M3, E(2, 1)) == -E(1, 1)

    def test_b_satisfies_the_modified_law(self):
        theta2 = M3.weight * M3.weight
        for x, y in EX.pairs(M3):
            lhs = b_operator(M3, x) * b_operator(M3, y)
            rhs = b_operator(M3, b_operator(M3, x) * y + x * b_operator(M3, y))
            assert lhs == rhs - theta2 * (x * y)


class TestPreLie:
    def test_axiom_checks_pass(self):
        assert check_prelie_axiom(matrix_algebra(2), EX).status == "pass"
        assert check_prelie_axiom(summation_algebra(5), EX).status == "pass"

    def test_hand_value(self):
        # R(E12) E21 - E21 R(E12) + E21 E12 with R the triangular projection
        assert prelie_left(M3, E(1, 2), E(2, 1)) == E(1, 1)


class TestRescaling:
    def test_rescaled_weight_and_name(self):
        scaled = M3.rescaled(Fraction(-1, 2))
        assert scaled.weight == Fraction(1, 2)
        assert scaled.name == "matrix3*[beta=-1/2]"
        assert scaled.rb(E(1, 2)) == Fraction(-1, 2) * E(1, 2)

    def test_rescaled_operator_stays_rota_baxter(self):
        assert check_weight_rescale(M3, Fraction(2), EX).status == "pass"
        assert check_weight_rescale(summation_algebra(5), Fraction(-3), EX).status == "pass"


def _corrupt_projection(m: RatMatrix) -> RatMatrix:
    return RatMatrix(
        [
            [v if i <= j or (i, j) == (2, 0) else 0 for j, v in enumerate(row)]
            for i, row in enumerate(m.rows)
        ]
    )


def test_broken_operator_yields_a_counterexample():
    bad = replace(M3, name="matrix3-corrupt", rb=_corrupt_projection)
    res = check_rb_law(bad, EX)
    assert res.status == "fail"
    assert res.counterexample is not None
    assert "lhs=" in res.counterexample and "rhs=" in res.counterexample


class TestFirstFailure:
    @staticmethod
    def _laws(seen):
        def laws(a, b):
            seen.append((a, b))
            yield "sum", a + b, b + a
            yield "equal", a, b
            seen.append("after")
            yield "same", a, a

        return laws

    def test_none_when_every_law_holds(self):
        laws = lambda a, b: [("sum", a + b, b + a)]
        assert first_failure("ints", [(1, 2), (3, 4)], laws, "ab") is None

    def test_stops_at_the_first_failing_law_and_sample(self):
        seen = []
        bad = first_failure("ints", [(1, 1), (2, 5), (3, 7)], self._laws(seen), "ab")
        assert seen == [(1, 1), "after", (2, 5)]
        assert bad == "model=ints; law=equal; a=2; b=5; lhs=2; rhs=5; diff=-3"

    def test_renders_the_input_names_in_order(self):
        names = ["F1", "F2"]
        bad = first_failure("ints", [(4, 9)], lambda *fs: [("law", sum(fs), 0)], names)
        assert bad == "model=ints; law=law; F1=4; F2=9; lhs=13; rhs=0; diff=13"

    def test_cuts_every_value_and_marks_its_length(self):
        big = 10 ** (3 * CUT)
        bad = first_failure("ints", [(big,)], lambda x: [("law", x, 0)], "x")
        mark = f"...[{3 * CUT + 1} chars]"
        assert bad.count(mark) == 3  # x, lhs and diff; rhs=0 is short
        assert len(bad) < 3 * (CUT + len(mark)) + 100

    def test_an_empty_sample_is_a_configuration_error(self):
        with pytest.raises(ConfigError):
            first_failure("ints", [], lambda a: [("law", a, a)], "a")

    def test_an_empty_basis_does_not_pass(self):
        m2 = matrix_algebra(2)
        empty = replace(m2, basis=(), rb=lambda m: 2 * m2.rb(m))
        for check in (check_rb_law, check_double_assoc_and_hom):
            with pytest.raises(ConfigError):
                check(empty, EX)


# sha256 of `rbx verify --suite all --seed 42 --format json` without its
# elapsed_ms line: the regression oracle
ORACLE_SHA256 = "95ff43174ea3bf03e5cf95982f3acedfad69f79f17a7c01aeff9215937ee4331"


class TestFirstFailureFork:
    """In `split_run` a forked child evaluates the top-level samples whose
    run-wide index has an odd number of 1 bits, and this process the rest. The
    result is the serial one on every path, and no child outlives the run."""

    SAMPLES = [(i, i + 1) for i in range(10)]
    # the indices 0..9 with an even number of 1 bits; 1, 2, 4, 7 and 8 are the child's
    OURS = [0, 3, 5, 6, 9]

    @pytest.fixture(autouse=True)
    def forks(self, monkeypatch):
        """The pids that forked, with two CPUs on any machine."""
        forked, fork = [], os.fork

        def counted_fork():
            forked.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield forked
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _job(self, laws):
        """One check of SAMPLES, with the inputs this process evaluates in ``laws.seen``."""
        parent, seen = os.getpid(), []

        def recorded(a, b):
            if os.getpid() == parent:
                seen.append(a)
            return laws(a, b)

        job = lambda: first_failure("ints", self.SAMPLES, recorded, "ab")
        return job, seen

    def test_all_samples_pass(self, forks):
        job, seen = self._job(lambda a, b: [("sum", a + b, b + a)])
        assert algebra.split_run(job) is None
        assert forks == [os.getpid()]
        assert seen == self.OURS

    def test_an_ignored_sigchld_runs_the_job_serially(self, forks):
        """With SIGCHLD ignored the kernel reaps a child at once, so its exit
        status could not be read: the job runs in this process alone."""
        job, seen = self._job(lambda a, b: [("sum", a + b, b + a)])
        handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert algebra.split_run(job) is None
        finally:
            signal.signal(signal.SIGCHLD, handler)
        assert forks == []
        assert seen == list(range(10))

    def test_a_failure_in_the_childs_half_is_found_again_in_process(self, forks):
        job, seen = self._job(lambda a, b: [("θ-law", a, a if a < 7 else -a)])
        bad = algebra.split_run(job)
        assert bad == "model=ints; law=θ-law; a=7; b=8; lhs=7; rhs=-7; diff=14"
        assert seen == self.OURS + list(range(8))
        del seen[:]
        assert job() == bad and seen == list(range(8))
        assert forks == [os.getpid()]

    def test_a_failure_in_the_childs_share_ends_the_split_before_the_next_check(
        self, forks, monkeypatch
    ):
        """The child fails at sample 7 of the first of two checks. This process
        waits on its last sample of that check until the child has exited, so
        the poll at the end of the check sees the child's end and the second
        check is evaluated only in the serial rerun."""
        parent, child, fork = os.getpid(), [], os.fork

        def fork_and_keep():
            pid = fork()
            child.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork_and_keep)

        def laws(a, b):
            if a == 9 and os.getpid() == parent:
                os.waitid(os.P_PID, child[0], os.WEXITED | os.WNOWAIT)  # leaves it unreaped
            yield "law", a, a if a != 7 else 0

        first, seen = self._job(laws)
        second, seen_second = self._job(lambda a, b: [("law", a, a)])
        job = lambda: (first(), second())
        verdict = "model=ints; law=law; a=7; b=8; lhs=7; rhs=0; diff=7"
        assert algebra.split_run(job) == (verdict, None)
        assert seen == self.OURS + list(range(8))
        assert seen_second == list(range(10))
        del seen[:], seen_second[:]
        assert job() == (verdict, None) and seen == list(range(8))
        assert forks == [parent]

    def test_a_reaped_child_is_never_signalled(self, forks, monkeypatch):
        """The child fails at sample 1 and this process waits on its last
        sample until the child has exited, so the poll at the end of the check
        reaps it. Its pid may name another process by then, so the split does
        not kill it."""
        parent, child, signalled, fork, kill = os.getpid(), [], [], os.fork, os.kill

        def fork_and_keep():
            pid = fork()
            child.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork_and_keep)
        monkeypatch.setattr(os, "kill", lambda pid, sig: signalled.append(pid) or kill(pid, sig))

        def laws(a, b):
            if a == 9 and os.getpid() == parent:
                os.waitid(os.P_PID, child[0], os.WEXITED | os.WNOWAIT)  # leaves it unreaped
            yield "law", a, a if a != 1 else 0

        job, _ = self._job(laws)
        verdict = "model=ints; law=law; a=1; b=2; lhs=1; rhs=0; diff=1"
        assert algebra.split_run(job) == job() == verdict
        assert child[0] not in signalled
        assert forks == [parent]

    def test_a_failure_in_the_parents_half_wins_over_a_raise_in_the_childs(self, forks):
        def laws(a, b):
            if a in (4, 7, 8):
                raise ZeroDivisionError("the child's share")
            yield "law", a, a if a != 3 else 0

        job, seen = self._job(laws)
        bad = algebra.split_run(job)
        assert bad == "model=ints; law=law; a=3; b=4; lhs=3; rhs=0; diff=3"
        assert seen == [0, 3, 0, 1, 2, 3]  # the split ends at this process's first failure
        assert forks == [os.getpid()]

    def test_an_interrupt_in_the_parents_half_reaps_the_child(self, forks):
        parent = os.getpid()

        def laws(a, b):
            if a == 3 and os.getpid() == parent:
                raise KeyboardInterrupt
            yield "law", a, a

        with pytest.raises(KeyboardInterrupt):
            algebra.split_run(self._job(laws)[0])
        assert forks == [parent]

    def test_a_raise_in_the_childs_half_is_raised_again_in_process(self, forks):
        def laws(a, b):
            if a == 7:
                raise ConfigError(f"no law at a={a}")
            yield "law", a, a

        job, _ = self._job(laws)
        with pytest.raises(ConfigError, match="^no law at a=7$"):
            job()
        with pytest.raises(ConfigError, match="^no law at a=7$"):
            algebra.split_run(job)
        assert forks == [os.getpid()]

    def test_a_child_that_dies_leaves_its_half_to_the_parent(self, forks):
        parent = os.getpid()

        def laws(a, b):
            if os.getpid() != parent:
                os._exit(3)
            yield "law", a, a

        job, seen = self._job(laws)
        assert algebra.split_run(job) is None
        assert seen == self.OURS + list(range(10))
        assert forks == [parent]

    def test_a_failed_fork_evaluates_in_order(self, monkeypatch):
        def refused():
            raise OSError("no fork")

        job, seen = self._job(lambda a, b: [("law", a, a if a != 6 else 0)])
        monkeypatch.setattr(os, "fork", refused)
        bad = algebra.split_run(job)
        assert bad == "model=ints; law=law; a=6; b=7; lhs=6; rhs=0; diff=6"
        assert seen == [0, 1, 2, 3, 4, 5, 6]

    def test_a_nested_first_failure_is_evaluated_in_full(self, forks):
        """A law whose value is a failing verdict gets that exact verdict, and
        nested calls leave the run-wide index alone: the second check's samples
        are indices 10..19."""
        inner = lambda a, b: [("law", a, a if a != 7 else 0)]
        verdict = "model=inner; law=law; a=7; b=8; lhs=7; rhs=0; diff=7"
        nested, seen = self._job(lambda a, b: [("nested", first_failure(
            "inner", self.SAMPLES, inner, "ab"), verdict)])
        second, seen_second = self._job(lambda a, b: [("law", a, a)])
        job = lambda: (nested(), second())
        assert algebra.split_run(job) == job() == (None, None)
        assert seen == self.OURS + list(range(10))
        assert seen_second == [0, 2, 5, 7, 8] + list(range(10))
        assert forks == [os.getpid()]

    def test_a_later_raise_outside_first_failure_is_the_serial_exception(self, forks):
        def laws(a, b):
            if a == 7:
                raise ZeroDivisionError("the child's share")
            yield "law", a, a

        check, _ = self._job(laws)

        def job():
            check()
            raise ConfigError("after the check")

        for run in (job, lambda: algebra.split_run(job)):
            with pytest.raises(ZeroDivisionError, match="^the child's share$"):
                run()
        assert forks == [os.getpid()]

    @pytest.mark.parametrize("broken", [False, True], ids=["shipped", "matrix-2P"])
    def test_whole_suites_report_the_same_bytes_split_or_not(self, broken, forks, monkeypatch):
        """Every check of six suites at 40 trials and Bohnenblust-Spitzer
        arity 5, each suite one split run, against the same runs on one CPU.
        Under 2P the matrix3 cycles-prelie checks fail at n = 3..5, in both
        processes' shares, so a split that builds the Bohnenblust-Spitzer
        sides inside the laws ends in a serial rerun."""
        argv = ["verify", "--trials", "40", "--bs-arity", "5", "--format", "json"]
        doubled = replace(M3, rb=lambda m: 2 * models.triangular_projection(m))
        chosen = {"matrix": doubled} if broken else None
        suites = ("rb-laws", "prelie", "dendriform", "yang-baxter", "atkinson",
                  "bohnenblust-spitzer")

        def bodies(cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            out = []
            for suite in suites:
                report = cli.run_suite(cli.parse_config(argv + ["--suite", suite]), chosen)
                report.elapsed_ms = 0
                out.append(report.to_json())
            return out

        split = bodies({0, 1})
        assert forks == [os.getpid()] * len(suites)
        assert split == bodies({0})
        assert len(forks) == len(suites)
        assert any('"status": "fail"' in body for body in split) == broken

    def test_the_oracle_and_a_failing_run_are_the_same_bytes_on_two_cpus_or_one(
        self, forks, monkeypatch, capsys
    ):
        """`--suite all --seed 42` keeps the oracle body with the split forced on
        and off, and so does a run in which matrix's R is 2 x triangular_projection."""
        argv = ["verify", "--suite", "all", "--seed", "42", "--format", "json"]
        doubled = {"matrix": replace(M3, rb=lambda m: 2 * models.triangular_projection(m))}

        def run(cpus, chosen=None):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            rc = cli.main(argv, chosen)
            lines = capsys.readouterr().out.splitlines(keepends=True)
            return rc, "".join(line for line in lines if "elapsed_ms" not in line)

        split, serial = run({0, 1}), run({0})
        assert forks == [os.getpid()]
        assert split == serial and split[0] == 0
        assert hashlib.sha256(split[1].encode()).hexdigest() == ORACLE_SHA256
        broken = run({0, 1}, doubled)
        assert forks == [os.getpid()] * 2
        assert broken == run({0}, doubled) and broken[0] == 1
        assert len(forks) == 2

    # the suites whose split parent may apply R as often as a serial run, and why
    UNSHARED = {
        "shuffle": "its laws are on words and apply no registry carrier's R",
        "magnus": "its Magnus series are built outside the laws, so by both processes",
    }

    def test_the_parent_applies_r_at_most_0_6_times_as_often_as_a_serial_run(
        self, forks, monkeypatch
    ):
        """Each suite of `--suite all` at small flags, with every registry
        carrier's R counted in this process: split, its count is at most 0.6
        of the count on one CPU, in every suite but those of UNSHARED."""
        argv = ["verify", "--trials", "20", "--order", "4", "--bs-arity", "4", "--format", "json"]
        calls = [0]

        def counted(rb):
            def counted_rb(x):
                calls[0] += 1
                return rb(x)

            return counted_rb

        registry = cli.default_models(cli.parse_config(argv))
        wrapped = {id(alg): replace(alg, rb=counted(alg.rb)) for alg in registry.values()}
        chosen = {key: wrapped[id(alg)] for key, alg in registry.items()}

        def r_calls(suite, cpus):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            calls[0] = 0
            assert cli.main(argv + ["--suite", suite], chosen) == 0
            return calls[0]

        ratios = {}
        for suite in cli.SUITES:
            split, serial = r_calls(suite, {0, 1}), r_calls(suite, {0})
            ratios[suite] = split / serial if serial else None
        unshared = {suite for suite, ratio in ratios.items() if ratio is None or ratio > 0.6}
        assert unshared == set(self.UNSHARED), ratios
        assert forks == [os.getpid()] * len(cli.SUITES)


def _doubled(alg):
    return replace(alg, rb=lambda x: 2 * alg.rb(x))


_M2_ID0 = replace(matrix_algebra(2), name="matrix2-id", weight=Fraction(0), rb=lambda m: m)
_RND = SamplePlan("random", 10, 3)
_X = RatMatrix.unit(3, 1, 2) + RatMatrix.unit(3, 2, 1)
_LAURENT = _doubled(laurent_algebra(16, 16))
_L_X = LambdaSeries(_LAURENT, (_LAURENT.zero, _LAURENT.one, _LAURENT.basis[1]))
_S5 = _doubled(summation_algebra(5))
_RNG = random.Random(1)
_F = tuple(M3.random_element(_RNG) for _ in range(3))
_D3 = _doubled(M3)


def _suite_check(suite, check, target, broken):
    """A thunk: the named check of a suite run with `cli.<target>` replaced by `broken`."""

    def run():
        with mock.patch.object(cli, target, broken):
            report = cli.run_suite(SuiteConfig(suite=suite, trials=10))
        return next(c for c in report.checks if c.name == check)

    return run


# a word product plus its left factor: still bilinear, no longer commutative
_skewed = lambda mul: lambda u, v, *alpha: mul(u, v, *alpha) + NCPoly.from_word(u)
_no_merge = lambda u, v, alpha: combinat.shuffle_sum(u, v)
_accept = lambda r, mode: CheckResult.of(f"aybe/{mode}", "Eq. (ag)", None)

# one row per check family: (label, model name, thunk returning the CheckResult)
_BROKEN = [
    ("rb-law", "matrix3", lambda: check_rb_law(_doubled(M3), EX)),
    ("linearity", "matrix3", lambda: check_linearity(replace(M3, rb=lambda m: m + M3.one), EX)),
    ("double-product", "matrix3", lambda: check_double_assoc_and_hom(_doubled(M3), _RND)),
    ("weight-rescale", "matrix3*[beta=2]",
     lambda: check_weight_rescale(_doubled(M3), Fraction(2), _RND)),
    ("prelie", "matrix3", lambda: check_prelie_axiom(_doubled(M3), _RND)),
    ("dendriform", "matrix2-id", lambda: check_dendriform(_M2_ID0, EX)),
    ("operator-ybe", "matrix2-id", lambda: check_operator_ybe(_M2_ID0, EX)),
    ("modified-ybe", "matrix3", lambda: check_modified_ybe(_doubled(M3), _RND)),
    ("aybe", "tensor-cube[2]", lambda: aybe_check(
        TensorR(((RatMatrix.unit(2, 1, 1), RatMatrix.unit(2, 1, 1)),)))),
    ("atkinson", "matrix3", lambda: check_atkinson(_D3, _X, 3, atkinson_lemma(_D3, EX))),
    ("bogoliubov", "laurent[16,16]", lambda: check_bogoliubov(_LAURENT, _L_X)),
    ("spitzer", "summation[W=5]", lambda: spitzer_check_commutative(_S5, _S5.one, 3)),
    ("nc-spitzer", "matrix3", lambda: check_nc_spitzer(_doubled(M3), _X, 3)),
    ("bohnenblust-spitzer", "matrix3",
     lambda: check_bohnenblust_spitzer(_doubled(M3), _F)[0]),  # matrix3: cycles-prelie alone
    ("flows-product", "matrix3", lambda: check_flows_product_law(_D3, _X, E(2, 3), 3)),
    ("flows-bch", "matrix3", lambda: check_flows_bch(_D3, _X, E(2, 3), 3)),
    ("shuffle-cardinality", "words", _suite_check(
        "shuffle", "shuffle/cardinality", "shuffle", lambda u, v: combinat.shuffle(u, v)[1:])),
    ("shuffle-membership", "words", _suite_check(
        "shuffle", "shuffle/membership", "is_shuffle_of", lambda w, u, v: True)),
    ("shuffle-product-laws", "words", _suite_check(
        "shuffle", "shuffle/product-laws", "shuffle_sum", _skewed(combinat.shuffle_sum))),
    ("shuffle-half-products", "words", _suite_check(
        "shuffle", "shuffle/half-products", "shuffle_lower", combinat.shuffle_upper)),
    ("quasi-shuffle-single-letters", "words", _suite_check(
        "quasi-shuffle", "quasi-shuffle/single-letters", "quasi_shuffle", _no_merge)),
    ("quasi-shuffle-five-term", "words", _suite_check(
        "quasi-shuffle", "quasi-shuffle/five-term", "quasi_shuffle", _no_merge)),
    ("quasi-shuffle-product-laws", "words", _suite_check(
        "quasi-shuffle", "quasi-shuffle/product-laws", "quasi_shuffle",
        _skewed(combinat.quasi_shuffle))),
    ("quasi-shuffle-half-products", "words", _suite_check(
        "quasi-shuffle", "quasi-shuffle/half-products", "quasi_shuffle_lower",
        combinat.quasi_shuffle_upper)),
    ("quasi-shuffle-merge-free", "words", _suite_check(
        "quasi-shuffle", "quasi-shuffle/merge-free", "shuffle_sum", _skewed(combinat.shuffle_sum))),
    ("aybe-E11-rejected", "tensor-cube[2]", _suite_check(
        "yang-baxter", "aybe/standard/E11-rejected", "aybe_check", _accept)),
]


@pytest.mark.parametrize(
    "model, run", [row[1:] for row in _BROKEN], ids=[row[0] for row in _BROKEN]
)
def test_every_check_family_renders_its_counterexample(model, run):
    res = run()
    assert res.status == "fail"
    assert res.counterexample.startswith(f"model={model}; law=")
    for key in ("; lhs=", "; rhs=", "; diff="):
        assert key in res.counterexample


def test_every_check_is_decided_by_first_failure(monkeypatch):
    """Each CheckResult.of of a full run follows a first_failure that returned
    after the previous one, so no check renders a counterexample of its own."""
    events = []  # None when a first_failure returns, the check name at CheckResult.of
    evaluate, of = algebra.first_failure, CheckResult.of.__func__

    def recorded_first_failure(*args):
        bad = evaluate(*args)
        events.append(None)
        return bad

    def recorded_of(cls, name, anchor, counterexample):
        events.append(name)
        return of(cls, name, anchor, counterexample)

    for module in (algebra, cli, identities, models, yangbaxter):
        monkeypatch.setattr(module, "first_failure", recorded_first_failure)
    monkeypatch.setattr(CheckResult, "of", classmethod(recorded_of))
    argv = ["verify", "--suite", "all", "--trials", "10", "--order", "4", "--bs-arity", "4"]
    report = cli.run_suite(cli.parse_config(argv))
    assert report.checks and report.failed == 0
    undecided = [
        name for before, name in zip(["start"] + events, events) if None not in (before, name)
    ]
    assert undecided == []
