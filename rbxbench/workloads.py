"""The benchmark's workloads: which `rbx verify` suites a pass runs, with which flags.

Every suite runs at default flags (trials 200, window 10, dim 3) apart from
the flags listed here; `--seed` comes from the benchmark's own seed argument.
"""

from __future__ import annotations

ORDER8 = ("--order", "8")

# name -> ((suite, extra flags), ...), run in this order in every pass
WORKLOADS = {
    # law-check traffic: many small random operands on all seven carriers
    "laws": (
        ("rb-laws", ()),
        ("prelie", ()),
        ("dendriform", ()),
        ("yang-baxter", ()),
    ),
    # the Magnus recursion and series products at the deepest order the CLI takes
    "series-deep": tuple(
        (suite, ORDER8)
        for suite in ("spitzer", "nc-spitzer", "magnus", "atkinson", "bogoliubov", "flows-bch")
    ),
    # few large sparse word-polynomial products, and the rest of combinat
    "bs-wide": (
        ("bohnenblust-spitzer", ("--bs-arity", "6")),
        ("shuffle", ()),
        ("quasi-shuffle", ("--alphabet", "9")),
        ("standard-symmetric", ()),
    ),
}

# Soundness probe: the `matrix` model is replaced by 2 x triangular_projection
# with its declared weight -1 kept. 2P is Rota-Baxter of weight -2, so every
# check named by a prefix below must FAIL; checks off matrix3 must still PASS.
PROBES = {
    "laws": (("rb-laws", (), ("rb-law/matrix3/",)),),
    "series-deep": (
        ("nc-spitzer", ORDER8, ("nc-spitzer/matrix3/",)),
        ("atkinson", ORDER8, ("atkinson/matrix3/",)),
    ),
    "bs-wide": (
        (
            "bohnenblust-spitzer",
            ("--bs-arity", "6"),
            tuple(f"bohnenblust-spitzer/matrix3/n={n}/cycles-prelie" for n in range(3, 7)),
        ),
    ),
}


def verify_argv(suite: str, extra, seed: int, output: str, model: str | None = None) -> list:
    """The `rbx verify` argument list of one suite call with a JSON report file."""
    argv = ["verify", "--suite", suite, *extra, "--seed", str(seed)]
    if model is not None:
        argv += ["--model", model]
    return argv + ["--format", "json", "--output", output]
