"""The rbx benchmark: time `rbx verify` on one workload and check its output.

    python3 rbxbench/run.py --workload laws --seed 42 --seconds 30 --trace 0

Run from the root of a checkout; rbx is imported from its `src/`. Each pass
runs in a fresh child interpreter (`child.py`), one child at a time, and
calls `rbx.cli.main` once per suite of the workload. Passes repeat until
`--seconds` have gone by. With `--trace 0` the last line of standard output
holds the end-to-end metrics: `setup_s`, `verify_s` and `peak_rss_mb`, each
the median over the run. With `--trace 1` one extra pass runs traced
(`tracer.py`) and the line holds the per-layer metrics instead, plus the
tracing overhead. Reports, the trace (JSON lines) and the result go to
`.rbxbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS_PER_PASS = 2  # set-up-only children per pass, on top of each pass's own set-up
CHILD_TIMEOUT_S = 150


def spawn(job: str, args: dict) -> dict:
    """Run child.py for one job and wait for it; its last stdout line is JSON."""
    args = dict(args, spawned_at=time.monotonic())
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), job, json.dumps(args)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"child {job} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class Run:
    """The passes of one benchmark run and what they found."""

    def __init__(self, workload: str, seed: int, work: str):
        self.workload, self.seed, self.work = workload, seed, work
        self.setups, self.verifies, self.rss = [], [], []
        self.attempted = self.failed = 0
        self.correct = True
        self.first_reports = {}

    def note(self, what: str) -> None:
        print(f"[{self.workload} seed={self.seed}] {what}", file=sys.stderr)

    def setup_only(self) -> None:
        self.setups.append(spawn("setup", {})["setup_s"])

    def one_pass(self, index: int, trace_file: str | None = None) -> dict:
        """One pass in a fresh child, traced into trace_file if given.

        Each suite call is one operation.
        """
        out = os.path.join(self.work, f"pass{index}")
        os.mkdir(out)
        result = spawn("pass", {"workload": self.workload, "seed": self.seed, "out": out,
                                "trace_file": trace_file})
        for call in result["calls"]:
            self.attempted += 1
            text = read(os.path.join(out, f"{call['suite']}.json"))
            problems = checks.report_problems(text, call["rc"])
            first = self.first_reports.setdefault(call["suite"], text)
            if not problems:
                problems = checks.same_report_problems(first, text)
            if problems:
                self.failed += 1
                self.note(f"pass {index} {call['suite']}: " + "; ".join(problems))
        self.note(f"pass {index}: verify_s={result['verify_s']:.3f} setup_s={result['setup_s']:.3f}"
                  + (" traced" if trace_file else ""))
        if not trace_file:
            self.setups.append(result["setup_s"])
            self.verifies.append(result["verify_s"])
            self.rss.append(result["peak_rss_mb"])
        return result

    def check_outputs(self) -> None:
        """The soundness probe and the recomputed values, outside any timing."""
        result = spawn("checks", {"workload": self.workload, "seed": self.seed, "out": self.work})
        problems = list(result["problems"])
        for probe in result["probes"]:
            found = checks.probe_problems(read(probe["output"]), probe["rc"], probe["must_fail"])
            problems += [f"probe {probe['suite']}: {p}" for p in found]
        for p in problems:
            self.note(p)
        self.correct = not problems


def measure(workload: str, seed: int, seconds: float, trace: bool, state_dir: str) -> dict:
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=state_dir)
    try:
        run = Run(workload, seed, work)
        run.check_outputs()  # also compiles rbx once, so no pass pays for that
        if trace:
            trace_file = os.path.join(state_dir, f"trace-{workload}-seed{seed}.jsonl")
            traced = run.one_pass(0, trace_file)
        started, index = time.monotonic(), 1
        while index == 1 or time.monotonic() - started < seconds:
            for _ in range(SETUPS_PER_PASS):
                run.setup_only()
            run.one_pass(index)
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["verify_s"] - statistics.median(run.verifies)
        metrics = {name: {"value": value, "unit": tracer.unit(name)} for name, value in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(run.setups), "unit": "s"},
            "verify_s": {"value": statistics.median(run.verifies), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(run.rss), "unit": "MB"},
        }
    return {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rbx", "cli.py")):
        print(f"error: no rbx sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    state_dir = os.path.join(ROOT, ".rbxbench")
    os.makedirs(state_dir, exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), state_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = json.dumps(result, sort_keys=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(state_dir, name), "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
