"""One fresh interpreter of the benchmark: set up rbx, then do one job.

    python3 child.py <job> '<json arguments>'

Jobs: `setup` (import rbx and build the carrier registry, nothing else),
`pass` (one timed pass of a workload's suites through `rbx.cli.main`,
optionally traced) and `checks` (the soundness probe and the values
recomputed apart from rbx, outside any timing). The last line of standard
output is one JSON object for the parent, `run.py`.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, os.path.join(ROOT, "src"))


def _setup(spawned_at: float) -> float:
    """Seconds from the parent's spawn until rbx and its registry are ready."""
    import rbx.cli

    if not os.path.abspath(rbx.cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"rbx imported from {rbx.cli.__file__}, not from this checkout")
    rbx.cli.default_models(rbx.cli.SuiteConfig())
    return time.monotonic() - spawned_at


def job_pass(args: dict) -> dict:
    from rbx.cli import main
    from workloads import WORKLOADS, verify_argv

    trace = None
    if args["trace_file"]:
        from tracer import Tracer

        trace = Tracer()
        trace.install()
    calls = []
    for suite, extra in WORKLOADS[args["workload"]]:
        output = os.path.join(args["out"], f"{suite}.json")
        argv = verify_argv(suite, extra, args["seed"], output)
        start = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback is a failed operation, not a crashed run
            rc = f"{type(exc).__name__}: {exc}"
        calls.append({"suite": suite, "rc": rc, "seconds": time.perf_counter() - start})
    out = {
        "calls": calls,
        "verify_s": sum(c["seconds"] for c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace is not None:
        out["layers"] = trace.metrics()
        trace.write_jsonl(args["trace_file"], {"workload": args["workload"], "seed": args["seed"]})
    return out


def job_checks(args: dict) -> dict:
    """The probe's exit codes and reports, and the recomputation problems."""
    import dataclasses
    import random
    from fractions import Fraction

    import checks
    from rbx.cli import main
    from rbx.models import matrix_algebra, triangular_projection
    from workloads import PROBES, verify_argv

    workload, seed = args["workload"], args["seed"]
    broken = dataclasses.replace(matrix_algebra(3), rb=lambda m: 2 * triangular_projection(m))
    probes = []
    for suite, extra, must_fail in PROBES[workload]:
        output = os.path.join(args["out"], f"probe-{suite}.json")
        argv = verify_argv(suite, extra, seed, output, model="matrix")
        rc = main(argv, models={"matrix": broken})
        probes.append({"suite": suite, "rc": rc, "output": output, "must_fail": must_fail})

    problems = []
    rng = random.Random(seed)
    if workload == "series-deep":
        from rbx.identities import prelie_magnus
        from rbx.models import SeqElement, summation_algebra
        from rbx.scalars import bernoulli

        alg = summation_algebra(10)
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(10)]
        omega = prelie_magnus(alg, SeqElement(x), 8).omega
        problems += checks.magnus_problems([c.entries for c in omega.coeffs], x, alg.weight)
        problems += checks.bernoulli_problems([bernoulli(n) for n in range(9)])
    elif workload == "bs-wide":
        from rbx.combinat import MonoidAlphabet, Word, permutations, quasi_shuffle, set_partitions, shuffle

        alpha = MonoidAlphabet(9)
        words = [Word(rng.randint(1, 9) for _ in range(k)) for k in range(4)]
        pairs = [(u, v) for u in words for v in words]
        problems += checks.combinat_problems(
            lambda n: len(set(p.images for p in permutations(n))),
            lambda n: len(set(str(p) for p in set_partitions(n))),
            lambda u, v: len(shuffle(u, v)),
            lambda u, v: sum(quasi_shuffle(u, v, alpha).terms.values()),
            pairs,
            n_max=6,
        )
    return {"probes": probes, "problems": problems}


def main() -> None:
    job, args = sys.argv[1], json.loads(sys.argv[2])
    setup_s = _setup(args["spawned_at"])
    result = {"setup_s": setup_s}
    if job == "pass":
        result.update(job_pass(args))
    elif job == "checks":
        result.update(job_checks(args))
    elif job != "setup":
        raise SystemExit(f"unknown job {job!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
