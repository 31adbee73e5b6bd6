"""`rbx verify` on random valid flag sets: every run passes or is refused.

Each drawn configuration sets every flag within its range, with or without
`--model` and `--weight`. A run must exit 0 with the requested parameters in
its report, or exit 2 with one `error:` line naming the suite or the model
(a suite that does not take the model, or a weight it cannot take). It must
never exit 1, which would mean a failing check, and never raise.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from rbx import cli

CONFIGS = st.fixed_dictionaries({
    "suite": st.sampled_from(cli.SUITES),
    "model": st.none() | st.sampled_from(cli.MODELS),
    "weight": st.none() | st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 4)),
    "order": st.integers(1, 8),
    "window": st.integers(3, 16),
    "dim": st.integers(2, 4),
    "alphabet": st.integers(1, 9),
    "bs_arity": st.integers(2, 6),
    "trials": st.integers(1, 12),
    "seed": st.integers(0, 2**32),
    "format": st.sampled_from(("text", "json")),
})


def _argv(config: dict) -> list:
    argv = ["verify"]
    for key, value in config.items():
        if key == "weight" and value is not None:
            argv.append(f"--weight={value}")  # the = form, since a value may start with -
        elif value is not None:
            argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


def _params(report: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(report)["params"]
    (line,) = [line for line in report.splitlines() if line.startswith("params: ")]
    return dict(item.split("=", 1) for item in line[len("params: "):].split(" "))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(CONFIGS)
def test_a_valid_flag_set_runs_or_is_refused_by_name(config):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(_argv(config))
    assert rc in (0, 2), (config, out.getvalue()[-2000:])
    if rc == 2:
        assert out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        assert line.startswith("error: ")
        assert f"suite {config['suite']}" in line or f"model {config['model']}" in line, line
        return
    assert err.getvalue() == ""
    want = {key: value for key, value in config.items() if key != "format"}
    want["weight"] = None if config["weight"] is None else str(config["weight"])
    if config["format"] == "text":
        want = {key: str(value) for key, value in want.items()}
    assert _params(out.getvalue(), config["format"]) == want
