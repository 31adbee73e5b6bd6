"""The benchmark's correctness job (`rbxbench/child.py checks`) passes.

The job runs each workload's soundness probe, suites under a broken matrix
operator that must fail where stated, and recomputes values apart from rbx.
It reads `prelie_magnus(...).omega`, `SeqElement.entries`, `permutations`,
`set_partitions` and `quasi_shuffle(...).terms`, so a refactor that drops or
renames one of them fails here. Each workload runs in a fresh interpreter,
as `rbxbench/run.py` runs it.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "rbxbench")


def _load_checks():
    spec = importlib.util.spec_from_file_location("rbxbench_checks", os.path.join(BENCH, "checks.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ("laws", "series-deep", "bs-wide"))
def test_the_correctness_job_finds_no_problem(workload, tmp_path):
    args = {"workload": workload, "seed": 42, "out": str(tmp_path), "spawned_at": time.monotonic()}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "checks", json.dumps(args)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
    checks = _load_checks()
    assert result["probes"]
    for probe in result["probes"]:
        with open(probe["output"], encoding="utf-8") as fh:
            text = fh.read()
        found = checks.probe_problems(text, probe["rc"], probe["must_fail"])
        assert found == [], probe["suite"]
