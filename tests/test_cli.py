"""Command line parsing, suite orchestration, report emission, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from rbx import cli, models
from rbx.algebra import SamplePlan
from rbx.cli import SUITES, SuiteConfig, main, parse_config, run_suite
from rbx.errors import ConfigError
from rbx.models import RatMatrix, matrix_algebra, noncommutative_standard_algebra
from rbx.report import CheckResult, Report, emit_report
from test_algebra import ORACLE_SHA256

FAST = ["--trials", "5"]

# `python -m rbx.cli verify <EXTREME> | grep -v elapsed_ms | sha256sum`: the
# flags at which products reach the longest words of any CLI run
EXTREME = ["--suite", "all", "--seed", "42", "--order", "8", "--window", "16", "--dim", "4",
           "--alphabet", "9", "--bs-arity", "6", "--format", "json"]
EXTREME_SHA256 = "065b5c11c24bb17284c8d35815be70a98c5f6e823466060867ed4e58d7b2401e"

ALL_MODELS = ("standard-comm", "standard-nc", "laurent", "matrix", "integration", "summation")

# suite -> the --model values it takes; every other model exits 2
SUITE_MODELS = {
    "rb-laws": ALL_MODELS,
    "shuffle": (),
    "quasi-shuffle": ("standard-comm",),
    "dendriform": ("integration",),
    "prelie": ALL_MODELS,
    "spitzer": ("standard-comm", "integration", "summation", "laurent"),
    "nc-spitzer": ("matrix", "standard-nc", "standard-comm"),
    "magnus": ("standard-nc",),
    "bohnenblust-spitzer": ("standard-comm", "standard-nc", "matrix", "integration"),
    "atkinson": ALL_MODELS,
    "bogoliubov": ("laurent",),
    "flows-bch": ("matrix",),
    "yang-baxter": ALL_MODELS,
    "standard-symmetric": ("summation",),
}


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config(["verify"])
        assert cfg == SuiteConfig()
        assert (cfg.suite, cfg.order, cfg.trials, cfg.format) == ("all", 6, 200, "text")

    def test_flags(self):
        cfg = parse_config(
            ["verify", "--suite", "magnus", "--order", "4", "--seed", "7",
             "--weight", "2/3", "--bs-arity", "4", "--format", "json"]
        )
        assert cfg.suite == "magnus"
        assert cfg.order == 4
        assert cfg.seed == 7
        assert cfg.weight == Fraction(2, 3)
        assert cfg.bs_arity == 4
        assert cfg.format == "json"

    def test_config_file_and_flag_precedence(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# sized-down run\nsuite = spitzer\norder=5\nbs-arity = 4\n\n")
        cfg = parse_config(["verify", "--config", str(path)])
        assert (cfg.suite, cfg.order, cfg.bs_arity) == ("spitzer", 5, 4)
        cfg = parse_config(["verify", "--config", str(path), "--order", "3"])
        assert cfg.order == 3

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("order\n")
        with pytest.raises(ConfigError):
            parse_config(["verify", "--config", str(bad)])
        bad.write_text("colour=red\n")
        with pytest.raises(ConfigError):
            parse_config(["verify", "--config", str(bad)])
        bad.write_text("order=six\n")
        with pytest.raises(ConfigError):
            parse_config(["verify", "--config", str(bad)])
        with pytest.raises(ConfigError):
            parse_config(["verify", "--config", str(tmp_path / "absent.conf")])

    def test_bad_weight(self):
        with pytest.raises(ConfigError):
            parse_config(["verify", "--weight", "one-half"])

    def test_argparse_rejects_unknown_choices(self):
        with pytest.raises(SystemExit):
            parse_config(["verify", "--suite", "everything"])
        with pytest.raises(SystemExit):
            parse_config([])


class TestSuiteConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("suite", "noesis"),
            ("model", "octonions"),
            ("order", 0),
            ("order", 9),
            ("window", 2),
            ("window", 17),
            ("dim", 1),
            ("dim", 5),
            ("alphabet", 0),
            ("alphabet", 10),
            ("bs_arity", 0),
            ("bs_arity", 1),
            ("bs_arity", 7),
            ("trials", -1),
            ("trials", 0),
            ("format", "yaml"),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ConfigError):
            SuiteConfig(**{field: value})


class TestRunSuite:
    def test_report_shape(self):
        cfg = SuiteConfig(suite="shuffle", trials=5)
        report = run_suite(cfg)
        assert report.suite == "shuffle"
        assert report.failed == 0
        assert report.passed == len(report.checks) > 0
        names = [c.name for c in report.checks]
        assert names == sorted(names)
        assert set(report.params) == {
            "suite", "model", "order", "window", "dim", "weight",
            "alphabet", "bs_arity", "trials", "seed",
        }
        assert report.params["weight"] is None

    def test_weight_appears_in_params_as_text(self):
        cfg = SuiteConfig(suite="rb-laws", model="matrix", weight=Fraction(2), trials=3)
        report = run_suite(cfg)
        assert report.params["weight"] == "2"
        assert report.failed == 0
        assert any("beta=" in c.name for c in report.checks)

    def test_suite_model_mismatch(self):
        assert set(SUITE_MODELS) == set(SUITES)
        for suite, takes in SUITE_MODELS.items():
            for model in ALL_MODELS:
                if model in takes:
                    continue
                with pytest.raises(ConfigError, match=f"suite {suite} .*it takes: "):
                    run_suite(SuiteConfig(suite=suite, model=model, trials=3))

    @pytest.mark.parametrize(
        "suite,model", [(s, m) for s, takes in SUITE_MODELS.items() for m in takes]
    )
    def test_suite_runs_on_each_model_it_takes(self, suite, model):
        report = run_suite(SuiteConfig(suite=suite, model=model, order=2, trials=3, bs_arity=2))
        assert report.failed == 0
        assert report.passed > 0

    def test_suite_all_names_the_suite_that_refuses_a_model(self, capsys):
        rc = main(["verify", "--suite", "all", "--model", "laurent"] + FAST)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: suite shuffle ")
        assert captured.out == ""

    def test_each_suite_selects_its_carriers_once(self, capsys, monkeypatch):
        selected, ran = [], []
        select = cli._select
        monkeypatch.setattr(cli, "_select", lambda cfg, registry, suite: selected.append(suite)
                            or select(cfg, registry, suite))
        argv = ["verify", "--suite", "all", "--order", "2", "--bs-arity", "2"] + FAST
        assert main(argv) == 0
        assert selected == list(SUITES)
        # laurent passes rb-laws and is refused by shuffle: no suite may run
        for name, fn in cli._SUITE_TABLE.items():
            recorded = lambda *args, fn=fn, name=name: ran.append(name) or fn(*args)
            monkeypatch.setitem(cli._SUITE_TABLE, name, recorded)
        capsys.readouterr()
        assert main(["verify", "--suite", "all", "--model", "laurent"] + FAST) == 2
        assert capsys.readouterr().err.startswith("error: suite shuffle ")
        assert ran == []

    @pytest.mark.parametrize(
        "suite", ["shuffle", "quasi-shuffle", "dendriform", "standard-symmetric"]
    )
    def test_fixed_weight_suites_refuse_a_weight(self, suite, capsys):
        rc = main(["verify", "--suite", suite, "--weight=2"] + FAST)
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: suite {suite} ")

    @pytest.mark.parametrize("weight", ["1/3", "2", "-3/2"])
    def test_bogoliubov_holds_at_any_weight(self, weight, capsys):
        argv = ["verify", "--suite", "bogoliubov", f"--weight={weight}", "--order", "3"]
        rc = main(argv + ["--format", "json"])
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert rc == 0, [c for c in checks.values() if c["status"] == "fail"][:1]
        assert checks["bogoliubov/one-step"]["status"] == "pass"
        assert len(checks) == 21

    def test_atkinson_lemma_runs_once_per_carrier(self, monkeypatch):
        calls = []
        pairs = SamplePlan.pairs

        def counted(plan, alg):
            calls.append(alg.name)
            return pairs(plan, alg)

        monkeypatch.setattr(SamplePlan, "pairs", counted)
        report = run_suite(SuiteConfig(suite="atkinson", order=2, trials=3))
        assert report.failed == 0
        carriers = sorted({c.name.split("/")[1] for c in report.checks})
        assert len(report.checks) == 2 * len(carriers) == 14
        # check_atkinson runs the lemma over the pairs once for both sources of a carrier
        assert sorted(calls) == carriers

    def test_weight_rescale_refuses_weight_zero_models(self):
        with pytest.raises(ConfigError, match="weight-0 model integration"):
            run_suite(SuiteConfig(suite="rb-laws", model="integration", weight=Fraction(2), trials=3))

    @pytest.mark.parametrize("suite", ["atkinson", "rb-laws"])
    def test_bare_weight_skips_weight_zero_models(self, suite, capsys):
        argv = ["verify", "--suite", suite, "--weight=2", "--order", "2", "--format", "json"]
        rc = main(argv + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        checks = [c["name"] for c in json.loads(out)["checks"]]
        assert checks and not [name for name in checks if "integration" in name]

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_every_dim_runs_each_carrier_once(self, dim, capsys, monkeypatch):
        built = set()
        kernel = models._product_kernel
        monkeypatch.setattr(models, "_product_kernel", lambda n: built.add(n) or kernel(n))
        argv = ["verify", "--suite", "all", "--dim", str(dim), "--trials", "3", "--order", "3"]
        rc = main(argv + ["--bs-arity", "3", "--format", "json"])
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]
        assert rc == 0
        assert len(names) == len(set(names))
        assert f"rb-law/matrix{dim}/exhaustive" in names and "rb-law/matrix2/exhaustive" in names
        # the 2 x 2 carrier, the --dim one and the tensor cube of a 2 x 2 r-matrix;
        # tests/test_kernels.py checks the product at each of these sizes and at 0
        assert built == {2, dim, 8}

    @pytest.mark.parametrize("key", ["matrix", "matrix2"])
    def test_a_carrier_given_for_either_key_runs_at_dim_2(self, key, capsys):
        m2 = matrix_algebra(2)
        doubled = replace(m2, rb=lambda m: 2 * m2.rb(m))
        argv = ["verify", "--suite", "rb-laws", "--model", "matrix", "--dim", "2"] + FAST
        assert main(argv, models={key: doubled}) == 1

    def test_deterministic_modulo_elapsed(self):
        cfg = SuiteConfig(suite="quasi-shuffle", trials=5)
        a, b = run_suite(cfg), run_suite(cfg)
        a.elapsed_ms = b.elapsed_ms = 0
        assert a.to_json() == b.to_json()


def _corrupt_projection(m: RatMatrix) -> RatMatrix:
    return RatMatrix(
        [
            [v if i <= j or (i, j) == (2, 0) else 0 for j, v in enumerate(row)]
            for i, row in enumerate(m.rows)
        ]
    )


def _corrupt_models() -> dict:
    bad = replace(matrix_algebra(3), rb=_corrupt_projection)
    return {"matrix": bad}


class TestMain:
    def test_exit_zero_and_text_output(self, capsys):
        rc = main(["verify", "--suite", "shuffle"] + FAST)
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("suite: shuffle")
        assert "PASS" in out and "FAIL" not in out
        assert "failed: 0" in out

    def test_exit_one_on_failing_model(self, capsys):
        rc = main(
            ["verify", "--suite", "rb-laws", "--model", "matrix"] + FAST,
            models=_corrupt_models(),
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "lhs=" in out

    def test_exit_two_on_config_error(self, capsys):
        rc = main(["verify", "--order", "99"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")

    def test_exit_two_on_an_argparse_error(self, capsys):
        # "-5/7" reads as an option, so --weight has no argument: main returns
        # argparse's exit code instead of raising it
        rc = main(["verify", "--suite", "rb-laws", "--weight", "-5/7"])
        err = capsys.readouterr().err
        assert rc == 2
        assert [line for line in err.splitlines() if "error:" in line] == [
            "rbx verify: error: argument --weight: expected one argument"
        ]

    def test_exit_two_on_a_config_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_bytes(b"\xff")
        rc = main(["verify", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith(f"error: cannot read config file {path}")
        assert captured.out == ""

    def test_exit_two_on_zero_trials(self, capsys):
        # an empty random sample would report every law as PASS unchecked
        rc = main(["verify", "--suite", "rb-laws", "--trials", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_exit_two_on_weight_zero(self, source, tmp_path, capsys):
        # weight 0 rescales every operator to the zero map, so a broken
        # operator would pass every law
        m3 = matrix_algebra(3)
        doubled = {"matrix": replace(m3, rb=lambda m: 2 * m3.rb(m))}
        argv = ["verify", "--suite", "rb-laws", "--model", "matrix"] + FAST
        assert main(argv, models=doubled) == 1
        if source == "flag":
            argv.append("--weight=0")
        else:
            path = tmp_path / "zero.conf"
            path.write_text("weight = 0/3\n")
            argv += ["--config", str(path)]
        capsys.readouterr()
        for suite in ("rb-laws", "bohnenblust-spitzer"):
            argv[2] = suite
            rc = main(argv, models=doubled)
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.err.startswith("error: --weight 0 ")
            assert captured.out == ""

    def test_exit_two_on_an_empty_exhaustive_sample(self, capsys):
        # a carrier without a basis would PASS the exhaustive laws unchecked
        m2 = matrix_algebra(2)
        empty = replace(m2, basis=(), rb=lambda m: 2 * m2.rb(m))
        argv = ["verify", "--suite", "rb-laws", "--model", "matrix"] + FAST
        rc = main(argv, models={"matrix2": empty})
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: model matrix2: the sample is empty")
        assert "PASS" not in captured.out

    def test_counterexamples_are_cut_and_show_both_sides(self, capsys):
        nc = noncommutative_standard_algebra(10)
        doubled = replace(nc, rb=lambda x: 2 * nc.rb(x))
        argv = ["verify", "--suite", "magnus", "--format", "json"]
        rc = main(argv, models={"standard-nc": doubled})
        checks = json.loads(capsys.readouterr().out)["checks"]
        failing = [c["counterexample"] for c in checks if c["status"] == "fail"]
        assert rc == 1 and failing
        for text in failing:
            assert text.startswith("model=standard-nc[W=10]; law=omega grade ")
            assert "; lhs=" in text and "; rhs=" in text and " chars]" in text
            assert len(text) < 4000

    def test_smallest_accepted_window_runs(self, capsys):
        window = 3
        with pytest.raises(ConfigError):
            SuiteConfig(window=window - 1)
        rc = main(["verify", "--suite", "standard-symmetric", "--window", str(window)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "failed: 0" in out

    def test_module_entry_point_imports_cli_once(self):
        import rbx

        src = os.path.dirname(os.path.dirname(os.path.abspath(rbx.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "rbx.cli",
             "verify", "--suite", "shuffle"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_exit_two_on_unwritable_output(self, tmp_path, capsys):
        for target in (tmp_path / "missing" / "report.json", tmp_path):
            rc = main(["verify", "--suite", "shuffle", "--output", str(target)] + FAST)
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"error: cannot write report to {target}: ")

    def test_piped_text_report_is_written_once(self):
        """The run forks once; its child leaves the parent's stdout alone."""
        import rbx

        argv = ["verify", "--suite", "rb-laws", "--trials", "40"]
        src = os.path.dirname(os.path.dirname(os.path.abspath(rbx.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "rbx.cli"] + argv,
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        body = lambda text: [line for line in text.splitlines() if "elapsed_ms" not in line]
        lines = body(proc.stdout)
        assert lines == body(run_suite(parse_config(argv)).to_text())
        assert len(lines) == len(set(lines)) > 30

    def test_json_schema(self, capsys):
        rc = main(["verify", "--suite", "quasi-shuffle", "--format", "json"] + FAST)
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "suite", "params", "checks", "passed", "failed", "elapsed_ms",
        }
        assert payload["suite"] == "quasi-shuffle"
        assert payload["failed"] == 0
        assert payload["passed"] == len(payload["checks"])
        for check in payload["checks"]:
            assert set(check) == {"name", "status", "anchor", "counterexample"}
            assert check["status"] in ("pass", "fail")
            assert check["anchor"].startswith("Eq. (")
        names = [c["name"] for c in payload["checks"]]
        assert names == sorted(names)

    def test_extreme_flag_report_is_pinned(self, capsys):
        assert main(["verify"] + EXTREME) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        body = "".join(line for line in lines if "elapsed_ms" not in line)
        assert hashlib.sha256(body.encode()).hexdigest() == EXTREME_SHA256

    def test_oracle_body_is_the_same_under_any_hash_seed(self):
        """The oracle command, run fresh under two PYTHONHASHSEED values."""
        import rbx

        src = os.path.dirname(os.path.dirname(os.path.abspath(rbx.__file__)))
        argv = ["verify", "--suite", "all", "--seed", "42", "--format", "json"]
        for seed in ("0", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "rbx.cli"] + argv,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines(keepends=True)
            body = "".join(line for line in lines if "elapsed_ms" not in line)
            assert hashlib.sha256(body.encode()).hexdigest() == ORACLE_SHA256, seed

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc = main(
            ["verify", "--suite", "shuffle", "--format", "json", "--output", str(target)]
            + FAST
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(target.read_text())
        assert payload["failed"] == 0


def test_empty_report_renders():
    report = Report(suite="none", params={})
    assert report.passed == report.failed == 0
    assert report.to_text().startswith("suite: none")
    assert json.loads(report.to_json())["checks"] == []


def test_report_guards():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        emit_report(Report(suite="none", params={}), "xml")
    with pytest.raises(ValueError, match="^bad status 'skip'$"):
        CheckResult("rb-law/x", "skip", "Eq. (RBR)")
    with pytest.raises(ValueError, match="^a failing check must carry a counterexample$"):
        CheckResult("rb-law/x", "fail", "Eq. (RBR)")
