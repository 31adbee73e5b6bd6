"""The benchmark tracer (`rbxbench/tracer.py`) still finds every name it wraps.

The tracer rebinds rbx functions where the CLI looks them up, so a refactor
that drops one of those names breaks `rbxbench/run.py --trace 1`, and a
refactor that moves a carrier operator out from under its hook makes that
carrier's metrics read 0. These tests install the tracer, run a suite through
`main` and uninstall it again.
"""

import importlib.util
import os

import pytest

from rbx import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "rbxbench_tracer", os.path.join(ROOT, "rbxbench", "tracer.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(tracer, argv) -> int:
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()


def test_tracer_wraps_a_suite_run_and_restores_rbx(tmp_path):
    tracer = _load_tracer().Tracer()
    suites = dict(cli._SUITE_TABLE)
    check = cli.check_atkinson
    argv = ["verify", "--suite", "atkinson", "--order", "2", "--trials", "3",
            "--format", "json", "--output", str(tmp_path / "report.json")]
    assert _traced_run(tracer, argv) == 0
    metrics = tracer.metrics()
    assert metrics["cli.suite_s.atkinson"] > 0
    assert metrics["identities.check_atkinson_s"] > 0
    assert metrics["report.emit_s"] > 0
    assert cli._SUITE_TABLE == suites
    assert cli.check_atkinson is check


def test_every_carrier_layer_is_counted(tmp_path):
    tracer = _load_tracer().Tracer()
    argv = ["verify", "--suite", "rb-laws", "--trials", "3",
            "--format", "json", "--output", str(tmp_path / "report.json")]
    assert _traced_run(tracer, argv) == 0
    metrics = tracer.metrics()
    names = [f"models.{carrier}.{op}_calls"
             for carrier in ("matrix", "laurent", "standard", "summation", "integration")
             for op in ("add", "mul", "R")]
    names.append("scalars.lowest_terms_calls")
    assert [name for name in names if not metrics[name] > 0] == []


# the word-layer metrics each suite reaches: the shuffle suite never forms a
# quasi-shuffle, while the quasi-shuffle suite checks its merge-free
# recursion against the plain shuffle
WORD_LAYER = {
    "shuffle": ("polynomials.ncpoly.mul_calls", "combinat.shuffle_s"),
    "quasi-shuffle": ("polynomials.ncpoly.mul_calls", "combinat.shuffle_s",
                      "combinat.quasi_shuffle_s"),
}


@pytest.mark.parametrize("suite", sorted(WORD_LAYER))
def test_word_layer_metrics_do_not_read_zero(suite, tmp_path):
    tracer = _load_tracer().Tracer()
    argv = ["verify", "--suite", suite, "--format", "json",
            "--output", str(tmp_path / "report.json")]
    assert _traced_run(tracer, argv) == 0
    metrics = tracer.metrics()
    assert [name for name in WORD_LAYER[suite] if not metrics[name] > 0] == []
